package service

// Metric emission: the service implements metrics.Source, contributing the
// multidimensional attribute schema of the paper's §4.2 — status variables,
// performance counters, per-EJB call counts, per-table query statistics,
// and the count of requests that violated SLOs.

// metricNames is built once; the order defines the row layout.
func (s *Service) buildMetricNames() []string {
	names := []string{
		"svc.throughput",
		"svc.errors",
		"svc.errorrate",
		"svc.latency.avg",
		"svc.latency.p95",
		"svc.slo.violations",
		"svc.down",
		"web.cpu.util",
		"web.nodes.up",
		"app.cpu.util",
		"app.threads.util",
		"app.heap.used",
		"app.heap.occ",
		"app.gc.overhead",
		"app.nodes.up",
		"db.cpu.util",
		"db.io.util",
		"db.conns.util",
		"db.buffer.hitratio",
		"db.buffer.effmb",
		"db.lockwait.avgms",
		"db.plan.slowdown",
		"db.nodes.up",
		"net.latency.ms",
		"net.loss",
	}
	for _, c := range s.classes {
		names = append(names, "web.req."+c.Name+".rate")
	}
	for _, c := range s.classes {
		names = append(names, "web.req."+c.Name+".latms")
	}
	for _, c := range s.classes {
		names = append(names, "web.req."+c.Name+".errors")
	}
	for _, e := range s.App.ejbs {
		names = append(names, "app.ejb."+e.Def.Name+".calls")
	}
	for _, t := range s.DB.tables {
		names = append(names, "db.table."+t.Def.Name+".queries")
	}
	for _, t := range s.DB.tables {
		names = append(names, "db.table."+t.Def.Name+".lockms")
	}
	for _, t := range s.DB.tables {
		names = append(names, "db.table."+t.Def.Name+".costops")
	}
	names = append(names, s.envNames()...)
	return names
}

// MetricNames implements metrics.Source.
func (s *Service) MetricNames() []string {
	if s.metricNames == nil {
		s.metricNames = s.buildMetricNames()
	}
	return s.metricNames
}

// ReadMetrics implements metrics.Source, writing the last tick's values.
func (s *Service) ReadMetrics(dst []float64) {
	st := &s.last
	down := 0.0
	if st.Down {
		down = 1
	}
	errRate := 0.0
	if st.Arrivals > 0 {
		errRate = st.Errors / st.Arrivals
	}
	head := [...]float64{
		st.Served,
		st.Errors,
		errRate,
		st.AvgLatencyMS,
		st.P95LatencyMS,
		st.SLOViolations,
		down,
		st.WebUtil,
		float64(s.Web.UpNodes()),
		st.AppUtil,
		st.ThreadUtil,
		st.HeapUsedMB,
		s.App.heapOccupancy(),
		st.GCOverhead,
		float64(s.App.UpNodes()),
		st.DBCPUUtil,
		st.DBIOUtil,
		st.ConnUtil,
		st.BufferHit,
		s.DB.Buffer.EffectiveMB,
		st.LockWaitAvgMS,
		st.PlanSlowdownAvg,
		float64(s.DB.UpNodes()),
		s.cfg.NetLatencyMS + s.Net.ExtraLatencyMS,
		s.Net.LossRate,
	}
	i := copy(dst, head[:])
	// The per-class, per-EJB and per-table runs follow in the order
	// stBacking holds them, zero before the first tick.
	i += copy(dst[i:], s.stBacking)
	s.readEnv(dst[i:])
}

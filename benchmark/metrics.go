package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric: its unit, its direction and how --compare
// judges it — by bound (the share of the base's median it may worsen by), or
// exactly, for simulated-time numbers that must repeat to the last digit.
// A metric with neither is printed without a verdict.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
	exact  bool
}

func (d metricDef) arrow() string {
	if d.higher {
		return "(higher is better)"
	}
	return "(lower is better)"
}

// manifest is BENCHMARK.json as the runner uses it. The file is the one
// declaration of the end-to-end metrics every workload reports untraced,
// with their bounds, and of the per-layer metrics a traced run reports; the
// runner reads it at start-up and keeps no copy of its own.
type manifest struct {
	workloads []string
	endToEnd  []metricDef
	perLayer  []metricDef
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root, as benchmark/run.sh does)", err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := &manifest{}
	for _, w := range doc.Workloads {
		m.workloads = append(m.workloads, w.Name)
	}
	defs := func(entries []entry) []metricDef {
		out := make([]metricDef, len(entries))
		for i, e := range entries {
			out[i] = metricDef{name: e.Name, unit: e.Unit, higher: e.Better == "higher", bound: e.Bound}
		}
		return out
	}
	m.endToEnd, m.perLayer = defs(doc.EndToEnd), defs(doc.PerLayer)
	if len(m.endToEnd) == 0 || len(m.perLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return m, nil
}

func find(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// ownMetrics are what single workloads report beside the end-to-end list,
// under the names ISSUE 11 gave them. BENCHMARK.json has one list that every
// workload must report, so a quantity only one or two workloads have cannot
// be declared there; it is declared here, once, and --compare judges it by
// this entry. No quantity is reported under two names: where an end-to-end
// metric already carries one of ISSUE 11's (workload.issue), that name is
// not repeated here.
var ownMetrics = []metricDef{
	// campaign-isolated and scenario-library. The simulated ones cover the
	// exact prefix and are pure functions of the seed.
	{name: "ticks_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "recovered_ratio", unit: "ratio", higher: true, exact: true},
	{name: "p95_ttr_ticks", unit: "ticks", exact: true},
	{name: "slo_violation_ticks", unit: "ticks", exact: true},
	{name: "scenario_runs_per_s", unit: "1/s", higher: true, bound: 0.25},
	// kb-readwrite.
	{name: "publish_p50_us", unit: "us", bound: 0.15},
	// federation-2node.
	{name: "propagation_p95_ms", unit: "ms", bound: 0.30},
	{name: "scrape_p50_ms", unit: "ms", bound: 0.20},
	// How late the open-loop generators ran, and the noise canary: they
	// qualify the other numbers and get no verdict of their own.
	{name: "kb.writer_late_p95_us", unit: "us"},
	{name: "probe.late_p95_ms", unit: "ms"},
	{name: "noise.canary_ratio", unit: "ratio"},
}

// simulatedMetrics are the end-to-end metrics that are simulated time on a
// workload marked simulated: exact for a seed there, so --compare judges them
// exactly on those workloads and by their bound on the others.
var simulatedMetrics = map[string]bool{"latency_ms": true, "latency_tail_ms": true, "success_ratio": true}

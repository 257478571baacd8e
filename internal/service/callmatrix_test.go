package service

import (
	"math"
	"reflect"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/sim"
)

// eagerCallMatrix is the call matrix as Tick used to build it every tick,
// recomputed from the live state right after the Tick that produced st:
// the deadlock flags, error rates and tier liveness Tick saw, st's per-EJB
// calls, and each class's noised demand.
func eagerCallMatrix(s *Service, demand []float64, st TickStats) [][]float64 {
	nC, nE := len(s.classes), len(s.App.ejbs)
	m := make([][]float64, nC+nE)
	for i := range m {
		m[i] = make([]float64, nE)
	}
	if !s.Web.Up() || !s.App.Up() || !s.DB.Up() {
		return m
	}
	for c := range s.classes {
		hang := 0.0
		for _, pt := range s.pathSparse[c] {
			if s.App.ejbs[pt.ejb].Deadlocked {
				hang += pt.inv
			}
		}
		hang = min(hang, 1)
		a := demand[c]
		if a <= 0 {
			continue
		}
		for _, call := range s.classCalls[c] {
			factor := 1.0
			if !s.App.ejbs[call.callee].Deadlocked {
				factor = 1 - 0.5*hang
			}
			m[c][call.callee] += call.count * a * factor
		}
	}
	for e, ejb := range s.App.ejbs {
		calls := st.EJBCalls[e]
		if calls <= 0 {
			continue
		}
		through := 1 - ejb.effectiveErrorRate()
		if ejb.Deadlocked {
			through = 0
		}
		for _, c := range s.ejbCalls[e] {
			m[nC+e][c.callee] += c.count * calls * through
		}
	}
	return m
}

// sameBits reports whether two matrices hold bit-identical values.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// noiseReplay follows a service's random stream on a twin generator, to
// recover the per-class demand noise Tick draws: each tick draws one
// normal per environmental walk, then, unless the service is down, one per
// class.
type noiseReplay struct {
	rng    *sim.RNG
	s      *Service
	demand []float64
}

func newNoiseReplay(s *Service) *noiseReplay {
	return &noiseReplay{rng: sim.NewRNG(s.cfg.Seed), s: s, demand: make([]float64, len(s.classes))}
}

// next returns the noised demand of the tick that ran on arrivals.
func (r *noiseReplay) next(arrivals []float64, down bool) []float64 {
	for _, w := range r.s.env {
		r.rng.Normal(0, w.step)
	}
	if down {
		return nil
	}
	for c, a := range arrivals {
		n := 1.0
		if f := r.s.cfg.NoiseFrac; f > 0 {
			n = max(1+r.rng.Normal(0, f), 0.5)
		}
		r.demand[c] = a * n
	}
	return r.demand
}

// copyMatrix returns an owned copy of m.
func copyMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// TestCallMatrixOnDemandMatchesEager steps two same-seed services through
// healthy, deadlocked, erroring and outage ticks. One is asked for its call
// matrix after every Tick, the other only every seventh tick and right
// after a fix applied between Tick and CallMatrix. Both must agree bit for
// bit with each other — matrices, TickStats and metric rows — and with the
// eager reference.
func TestCallMatrixOnDemandMatchesEager(t *testing.T) {
	for _, noise := range []float64{0, DefaultConfig().NoiseFrac} {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.NoiseFrac = noise
		every, sometimes := New(cfg), New(cfg)
		both := func(f func(s *Service)) { f(every); f(sometimes) }
		replay := newNoiseReplay(every)
		rowA := make([]float64, len(every.MetricNames()))
		rowB := make([]float64, len(rowA))
		arrivals := make([]float64, NumClasses())
		asked, outages := 0, 0
		for tick := 0; tick < 600; tick++ {
			// Scripted faults, injected before the tick.
			switch tick {
			case 60:
				both(func(s *Service) { s.App.EJB("ItemBean").Deadlocked = true })
			case 160:
				both(func(s *Service) {
					s.App.EJB("BidBean").ErrorRate = 0.3
					s.App.EJB("UserBean").BugErrorRate = 0.2
				})
			case 300:
				both(func(s *Service) { s.App.EJB("TransactionBean").Deadlocked = true })
			}
			for c := range arrivals {
				arrivals[c] = 30 * (1 + 0.5*math.Sin(float64(tick)/9+float64(c)))
				if c == 3 && tick%5 == 0 {
					arrivals[c] = 0 // a class with no traffic this tick
				}
			}
			stA, stB := every.Tick(arrivals), sometimes.Tick(arrivals)
			demand := replay.next(arrivals, stA.Down)
			if !reflect.DeepEqual(stA, stB) {
				t.Fatalf("noise %v, tick %d: tick stats differ", noise, tick)
			}
			if stA.Down {
				outages++
			}
			mA := copyMatrix(every.CallMatrix())
			if !sameBits(mA, eagerCallMatrix(every, demand, stA)) {
				t.Fatalf("noise %v, tick %d: on-demand matrix differs from the eager reference", noise, tick)
			}
			// Fixes applied between Tick and CallMatrix: the matrix is still
			// the tick's.
			var fix func(s *Service)
			switch tick {
			case 120:
				fix = func(s *Service) { s.MicrorebootEJB("ItemBean") }
			case 220:
				fix = func(s *Service) { s.RebootTier(catalog.TierApp) }
			case 330:
				fix = func(s *Service) { s.KillHungQuery() }
			case 420:
				fix = func(s *Service) { s.FullRestart() }
			}
			if fix != nil {
				both(fix)
			}
			if fix != nil || tick%7 == 0 {
				asked++
				if !sameBits(mA, sometimes.CallMatrix()) {
					t.Fatalf("noise %v, tick %d: matrix asked for late differs from the one asked for at once", noise, tick)
				}
			}
			every.ReadMetrics(rowA)
			sometimes.ReadMetrics(rowB)
			if !sameBits([][]float64{rowA}, [][]float64{rowB}) {
				t.Fatalf("noise %v, tick %d: metric rows differ", noise, tick)
			}
		}
		if outages == 0 || asked < 80 {
			t.Fatalf("noise %v: %d outage ticks, %d late asks: the script misses a case", noise, outages, asked)
		}
	}
}

package workload

import (
	"math"
	"testing"

	"selfheal/internal/service"
)

func TestMixesAlignWithServiceClasses(t *testing.T) {
	for _, mix := range []Mix{BiddingMix(), BrowsingMix()} {
		if len(mix.Rates) != service.NumClasses() {
			t.Errorf("%s has %d rates, service has %d classes", mix.Name, len(mix.Rates), service.NumClasses())
		}
	}
	// Bidding mix carries write traffic; browsing does not.
	names := service.ClassNames()
	bid := BiddingMix()
	browse := BrowsingMix()
	for i, n := range names {
		if n == "Bid" {
			if bid.Rates[i] == 0 {
				t.Error("bidding mix has no Bid traffic")
			}
			if browse.Rates[i] != 0 {
				t.Error("browsing mix has Bid traffic")
			}
		}
	}
}

func TestArrivalsMeanTracksRate(t *testing.T) {
	g := NewGenerator(BiddingMix(), 9)
	sums := make([]float64, service.NumClasses())
	const n = 2000
	for i := 0; i < n; i++ {
		arr := g.Arrivals(int64(i))
		for c, a := range arr {
			sums[c] += a
		}
	}
	for c, want := range BiddingMix().Rates {
		mean := sums[c] / n
		if want == 0 {
			if mean != 0 {
				t.Errorf("class %d mean %v, want 0", c, mean)
			}
			continue
		}
		if math.Abs(mean-want) > 5*math.Sqrt(want/n)+0.5 {
			t.Errorf("class %d mean %.2f want %.2f", c, mean, want)
		}
	}
}

func TestScale(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	g.SetScale(2)
	rates := g.Rates(0)
	for i, r := range rates {
		if want := BiddingMix().Rates[i] * 2; math.Abs(r-want) > 1e-9 {
			t.Fatalf("class %d rate %v want %v", i, r, want)
		}
	}
}

func TestSurgeWindowAndClasses(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	g.AddSurge(Surge{Start: 100, End: 200, Factor: 3, Classes: []int{0}})
	before := g.Rates(99)
	during := g.Rates(150)
	after := g.Rates(200)
	if during[0] != before[0]*3 {
		t.Errorf("surge class rate %v want %v", during[0], before[0]*3)
	}
	if during[1] != before[1] {
		t.Error("surge leaked to unlisted class")
	}
	if after[0] != before[0] {
		t.Error("surge persisted past End")
	}
}

func TestSurgeAllClasses(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	g.AddSurge(Surge{Start: 0, End: 10, Factor: 2})
	r := g.Rates(5)
	for i, base := range BiddingMix().Rates {
		if math.Abs(r[i]-base*2) > 1e-9 {
			t.Fatalf("class %d not surged", i)
		}
	}
}

func TestDriftDirection(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	g.SetDrift(0.001)
	names := service.ClassNames()
	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("class %s missing", name)
		return -1
	}
	early := g.Rates(0)
	for i := 0; i < 500; i++ {
		g.Arrivals(int64(i))
	}
	late := g.Rates(501)
	if late[idx("Browse")] <= early[idx("Browse")] {
		t.Error("drift should grow Browse traffic")
	}
	if late[idx("Bid")] >= early[idx("Bid")] {
		t.Error("drift should shrink Bid traffic")
	}
}

// TestReadingRatesMovesNoDrift: under drift, a generator whose Rates is
// read between ticks draws the same arrivals as its same-seed twin that is
// never read, and reading the rates twice gives the same rates.
func TestReadingRatesMovesNoDrift(t *testing.T) {
	read, quiet := NewGenerator(BiddingMix(), 3), NewGenerator(BiddingMix(), 3)
	read.SetDrift(0.002)
	quiet.SetDrift(0.002)
	for tick := int64(0); tick < 400; tick++ {
		a, b := read.Arrivals(tick), quiet.Arrivals(tick)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("tick %d, class %d: %v arrivals after reading the rates, %v without", tick, c, a[c], b[c])
			}
		}
		first, second := read.Rates(tick+1), read.Rates(tick+1)
		for c := range first {
			if first[c] != second[c] {
				t.Fatalf("tick %d, class %d: rates %v then %v", tick, c, first[c], second[c])
			}
		}
	}
}

func TestDiurnalBounds(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	g.EnableDiurnal()
	lo, hi := math.Inf(1), math.Inf(-1)
	base := BiddingMix().Rates[0]
	for tick := int64(0); tick < 86400; tick += 600 {
		r := g.Rates(tick)[0]
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo < base*0.7 || hi > base*1.3 {
		t.Errorf("diurnal out of ±30%% band: lo=%v hi=%v base=%v", lo, hi, base)
	}
	if hi-lo < base*0.2 {
		t.Error("diurnal modulation too weak to be meaningful")
	}
}

// sameArrivals asserts two generators emit bitwise-equal arrivals for the
// ticks [from, to).
func sameArrivals(t *testing.T, a, b *Generator, from, to int64) {
	t.Helper()
	for tick := from; tick < to; tick++ {
		x, y := a.Arrivals(tick), b.Arrivals(tick)
		for c := range x {
			if math.Float64bits(x[c]) != math.Float64bits(y[c]) {
				t.Fatalf("tick %d class %d: %v != %v", tick, c, x[c], y[c])
			}
		}
	}
}

func TestExpiredSurgesAreForgotten(t *testing.T) {
	const n = 50
	g, twin := NewGenerator(BiddingMix(), 9), NewGenerator(BiddingMix(), 9)
	g.SetDrift(1e-5)
	twin.SetDrift(1e-5)
	// n back-to-back surges, every one over by tick 10*n. They scale the
	// rates the samplers see, so the twin follows the same schedule up to
	// there; from then on it is compared against a twin whose surges were
	// never scheduled at all.
	for i := int64(0); i < n; i++ {
		s := Surge{Start: 10 * i, End: 10*i + 10, Factor: 1.5, Classes: []int{int(i) % 3}}
		g.AddSurge(s)
		twin.AddSurge(s)
	}
	sameArrivals(t, g, twin, 0, 10*n)
	twin.surges = nil
	sameArrivals(t, g, twin, 10*n, 10*n+500)
	if len(g.surges) != 0 {
		t.Errorf("%d surges still held after all %d ended", len(g.surges), n)
	}
}

func TestOverlappingSurgesMultiplyInInsertionOrder(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	// Factors chosen so that the two association orders round differently.
	f1, f2, f3 := 1.1, 1.3, 1.7
	g.AddSurge(Surge{Start: 0, End: 100, Factor: f1})
	g.AddSurge(Surge{Start: 0, End: 5, Factor: 9}) // ends first, from the middle
	g.AddSurge(Surge{Start: 0, End: 100, Factor: f2, Classes: []int{0}})
	g.AddSurge(Surge{Start: 0, End: 100, Factor: f3})
	g.Arrivals(10)
	if len(g.surges) != 3 {
		t.Fatalf("%d live surges, want 3", len(g.surges))
	}
	base := BiddingMix().Rates
	got := g.Rates(10)
	if want := base[0] * f1 * f2 * f3; math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Errorf("class 0 rate %v, want %v (f1, f2, f3 in that order)", got[0], want)
	}
	if want := base[1] * f1 * f3; math.Float64bits(got[1]) != math.Float64bits(want) {
		t.Errorf("class 1 rate %v, want %v", got[1], want)
	}
}

func TestFutureSurgeSurvivesUntilItEnds(t *testing.T) {
	g := NewGenerator(BiddingMix(), 1)
	g.AddSurge(Surge{Start: 50, End: 60, Factor: 2})
	base := BiddingMix().Rates[0]
	for tick := int64(0); tick < 70; tick++ {
		g.Arrivals(tick)
		want, held := base, 1
		if tick >= 50 && tick < 60 {
			want = base * 2
		}
		if tick >= 60 {
			held = 0
		}
		if got := g.Rates(tick)[0]; got != want {
			t.Fatalf("tick %d rate %v want %v", tick, got, want)
		}
		if len(g.surges) != held {
			t.Fatalf("tick %d: %d surges held, want %d", tick, len(g.surges), held)
		}
	}
}

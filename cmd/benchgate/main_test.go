package main

import (
	"io"
	"strings"
	"testing"
)

// TestGateReadsTheMedian: five samples of each TickTerms and Arrivals
// row, the last steady one taken on a busy runner. That sample alone
// breaks the tick reuse gate (0.8×); the medians hold it.
func TestGateReadsTheMedian(t *testing.T) {
	const out = `goos: linux
BenchmarkTickTerms/state=steady-2     	 1000000	       700 ns/op
BenchmarkTickTerms/state=changing-2   	 1000000	      1400 ns/op
BenchmarkArrivals/mix=bidding-2       	 1000000	       150 ns/op
BenchmarkTickTerms/state=steady-2     	 1000000	       720 ns/op
BenchmarkTickTerms/state=changing-2   	 1000000	      1380 ns/op
BenchmarkArrivals/mix=bidding-2       	 1000000	       160 ns/op
BenchmarkTickTerms/state=steady-2     	 1000000	       690 ns/op
BenchmarkTickTerms/state=changing-2   	 1000000	      1410 ns/op
BenchmarkArrivals/mix=bidding-2       	 1000000	       140 ns/op
BenchmarkTickTerms/state=steady-2     	 1000000	       710 ns/op
BenchmarkTickTerms/state=changing-2   	 1000000	      1390 ns/op
BenchmarkArrivals/mix=bidding-2       	 1000000	       155 ns/op
BenchmarkTickTerms/state=steady-2     	 1000000	      1310 ns/op
BenchmarkTickTerms/state=changing-2   	 1000000	      1400 ns/op
BenchmarkArrivals/mix=bidding-2       	 1000000	       150 ns/op
PASS
`
	rows, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows["TickTerms/state=steady"]["ns_per_op"]; got != 710 {
		t.Fatalf("steady row reads %v ns/op, want the median 710", got)
	}
	if fails := checkGates(io.Discard, rows); len(fails) > 0 {
		t.Fatalf("the medians hold every gate, but: %v", fails)
	}
	// The last sample alone breaks the gate.
	last := out[strings.LastIndex(out, "BenchmarkTickTerms/state=steady"):]
	rows, err = parseBench(strings.NewReader(last))
	if err != nil {
		t.Fatal(err)
	}
	if fails := checkGates(io.Discard, rows); len(fails) != 1 {
		t.Fatalf("the last sample alone should break the tick reuse gate; failures: %v", fails)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

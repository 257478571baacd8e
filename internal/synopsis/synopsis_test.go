package synopsis

import (
	"math"
	"testing"
	"testing/quick"

	"selfheal/internal/catalog"
	"selfheal/internal/sim"
)

// twoClusterData builds a linearly separable two-fix problem: fix A lives
// near (+5, 0, ...) and fix B near (-5, 0, ...).
func twoClusterData(rng *sim.RNG, n, dim int) []Point {
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		var a Action
		if i%2 == 0 {
			x[0] = 5 + rng.Normal(0, 0.5)
			a = Action{Fix: catalog.FixUpdateStats, Target: "items"}
		} else {
			x[0] = -5 + rng.Normal(0, 0.5)
			a = Action{Fix: catalog.FixRepartitionMemory}
		}
		for d := 1; d < dim; d++ {
			x[d] = rng.Normal(0, 1)
		}
		pts = append(pts, Point{X: x, Action: a, Success: true})
	}
	return pts
}

func learners() []Synopsis {
	return []Synopsis{
		NewNearestNeighbor(),
		NewKMeans(),
		NewAdaBoost(20),
		NewNaiveBayes(),
	}
}

func TestAllLearnersSeparateTwoClusters(t *testing.T) {
	rng := sim.NewRNG(7)
	train := twoClusterData(rng, 40, 6)
	test := twoClusterData(rng, 60, 6)
	for _, s := range learners() {
		for _, p := range train {
			s.Add(p)
		}
		acc := Accuracy(s, test)
		if acc < 0.95 {
			t.Errorf("%s accuracy %.2f on separable data", s.Name(), acc)
		}
		if s.TrainingSize() != 40 {
			t.Errorf("%s training size %d", s.Name(), s.TrainingSize())
		}
	}
}

func TestEmptySynopsesAbstain(t *testing.T) {
	for _, s := range learners() {
		if _, ok := s.Suggest([]float64{1, 2}, nil); ok {
			t.Errorf("%s suggested from an empty synopsis", s.Name())
		}
		if r := s.RankK([]float64{1, 2}, -1); len(r) != 0 {
			t.Errorf("%s ranked from an empty synopsis", s.Name())
		}
	}
}

func TestExcludeHonored(t *testing.T) {
	rng := sim.NewRNG(9)
	train := twoClusterData(rng, 30, 4)
	for _, s := range learners() {
		for _, p := range train {
			s.Add(p)
		}
		x := []float64{5, 0, 0, 0} // firmly in fix-A territory
		first, ok := s.Suggest(x, nil)
		if !ok {
			t.Fatalf("%s abstained", s.Name())
		}
		second, ok := s.Suggest(x, ExcludeActions(first.Action))
		if ok && second.Action == first.Action {
			t.Errorf("%s returned the excluded action", s.Name())
		}
	}
}

// Property: Suggest never returns an excluded action, for arbitrary
// exclusion of the ranked list's prefix.
func TestQuickSuggestNeverExcluded(t *testing.T) {
	rng := sim.NewRNG(11)
	train := twoClusterData(rng, 30, 4)
	nn := NewNearestNeighbor()
	for _, p := range train {
		nn.Add(p)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(raw []float64, mask uint8) bool {
		x := make([]float64, 4)
		for i := range x {
			if i < len(raw) && !math.IsNaN(raw[i]) && !math.IsInf(raw[i], 0) {
				x[i] = math.Mod(raw[i], 10)
			}
		}
		ranked := nn.RankK(x, -1)
		if len(ranked) == 0 {
			return true
		}
		var excluded []Action
		for i, r := range ranked {
			if mask&(1<<uint(i%8)) != 0 {
				excluded = append(excluded, r.Action)
			}
		}
		filter := ExcludeActions(excluded...)
		got, ok := nn.Suggest(x, filter)
		if !ok {
			return true
		}
		return !filter.Excludes(got.Action)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestKMeansMultimodalCeiling reproduces the mechanism behind the paper's
// k-means plateau: one fix whose symptoms form two distant modes gets a
// centroid between them, and a competitor's tight cluster captures points
// near one mode.
func TestKMeansMultimodalCeiling(t *testing.T) {
	rng := sim.NewRNG(13)
	microreboot := Action{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"}
	reboot := Action{Fix: catalog.FixRebootAppTier, Target: "app"}
	var train, test []Point
	mk := func(center float64, a Action, n int, dst *[]Point) {
		for i := 0; i < n; i++ {
			*dst = append(*dst, Point{
				X:       []float64{center + rng.Normal(0, 0.3), rng.Normal(0, 0.3)},
				Action:  a,
				Success: true,
			})
		}
	}
	// Microreboot's two symptom modes at x=0 and x=10; reboot-app sits at
	// x=4, nearer the midpoint (5) than either mode.
	mk(0, microreboot, 10, &train)
	mk(10, microreboot, 10, &train)
	mk(4, reboot, 10, &train)
	mk(0, microreboot, 20, &test)
	mk(10, microreboot, 20, &test)
	mk(4, reboot, 20, &test)

	km := NewKMeans()
	nn := NewNearestNeighbor()
	for _, p := range train {
		km.Add(p)
		nn.Add(p)
	}
	kmAcc := Accuracy(km, test)
	nnAcc := Accuracy(nn, test)
	if nnAcc < 0.95 {
		t.Errorf("NN should handle multimodality, got %.2f", nnAcc)
	}
	if kmAcc > nnAcc-0.2 {
		t.Errorf("k-means should cap well below NN on multimodal classes: km=%.2f nn=%.2f", kmAcc, nnAcc)
	}
}

func TestNegativeSamplesDampNN(t *testing.T) {
	a := Action{Fix: catalog.FixUpdateStats, Target: "items"}
	b := Action{Fix: catalog.FixRepartitionMemory}
	nn := NewNearestNeighbor()
	nn.UseNegatives = true
	// One success for each fix; fix A's exemplar is nearer the query...
	nn.Add(Point{X: []float64{1, 0}, Action: a, Success: true})
	nn.Add(Point{X: []float64{3, 0}, Action: b, Success: true})
	// ...but A has since failed right on top of the query.
	nn.Add(Point{X: []float64{0, 0}, Action: a, Success: false})

	sug, ok := nn.Suggest([]float64{0, 0}, nil)
	if !ok {
		t.Fatal("abstained")
	}
	if sug.Action.Fix != b.Fix {
		t.Errorf("negative sample did not flip the suggestion: got %v", sug.Action)
	}

	plain := NewNearestNeighbor()
	plain.Add(Point{X: []float64{1, 0}, Action: a, Success: true})
	plain.Add(Point{X: []float64{3, 0}, Action: b, Success: true})
	plain.Add(Point{X: []float64{0, 0}, Action: a, Success: false})
	sug, _ = plain.Suggest([]float64{0, 0}, nil)
	if sug.Action.Fix != a.Fix {
		t.Errorf("plain NN should ignore negatives: got %v", sug.Action)
	}
}

func TestNaiveBayesConfidencesSumToOne(t *testing.T) {
	rng := sim.NewRNG(17)
	nb := NewNaiveBayes()
	for _, p := range twoClusterData(rng, 30, 4) {
		nb.Add(p)
	}
	r := nb.RankK([]float64{5, 0, 0, 0}, -1)
	total := 0.0
	for _, s := range r {
		if s.Confidence < 0 || s.Confidence > 1 {
			t.Errorf("confidence %v out of range", s.Confidence)
		}
		total += s.Confidence
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("confidences sum to %v", total)
	}
	if r[0].Confidence < 0.9 {
		t.Errorf("confident case has confidence %v", r[0].Confidence)
	}
}

func TestAdaBoostRetrainDeterminism(t *testing.T) {
	rng := sim.NewRNG(19)
	train := twoClusterData(rng, 30, 4)
	a1 := NewAdaBoost(15)
	a2 := NewAdaBoost(15)
	for _, p := range train {
		a1.Add(p)
		a2.Add(p)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) - 10, 0, 0, 0}
		s1, ok1 := a1.Suggest(x, nil)
		s2, ok2 := a2.Suggest(x, nil)
		if ok1 != ok2 || (ok1 && s1.Action != s2.Action) {
			t.Fatal("identical training produced divergent ensembles")
		}
	}
}

func TestUnsuccessfulPointsDoNotTrainClassifiers(t *testing.T) {
	for _, s := range []Synopsis{NewKMeans(), NewAdaBoost(10), NewNaiveBayes()} {
		s.Add(Point{X: []float64{1, 2}, Action: Action{Fix: catalog.FixFullRestart}, Success: false})
		if s.TrainingSize() != 0 {
			t.Errorf("%s counted a failed attempt as training", s.Name())
		}
	}
}

func TestActionKeyAndString(t *testing.T) {
	a := Action{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"}
	if a.Key() == (Action{Fix: catalog.FixMicrorebootEJB}).Key() {
		t.Error("target not part of key")
	}
	if a.String() != "microreboot-ejb(ItemBean)" {
		t.Errorf("string %q", a.String())
	}
	if (Action{Fix: catalog.FixFullRestart}).String() != "full-service-restart" {
		t.Error("targetless string wrong")
	}
}

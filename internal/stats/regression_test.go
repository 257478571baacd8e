package stats

import (
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	f := FitLine(xs, ys)
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 1, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Errorf("fit %+v", f)
	}
	if got := f.Intercept + f.Slope*10; !almost(got, 21, 1e-12) {
		t.Errorf("fit at x=10 is %v", got)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if f := FitLine(nil, nil); f.N != 0 {
		t.Errorf("empty fit %+v", f)
	}
	f := FitLine([]float64{5}, []float64{9})
	if f.Intercept != 9 || f.Slope != 0 {
		t.Errorf("single-point fit %+v", f)
	}
	// Zero x-variance: flat line through the mean.
	f = FitLine([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || !almost(f.Intercept, 2, 1e-12) {
		t.Errorf("zero-variance fit %+v", f)
	}
}

func TestCrossingTime(t *testing.T) {
	f := LinearFit{Slope: 0.01, Intercept: 0.5}
	x, ok := f.CrossingTime(0.95, 0)
	if !ok || !almost(x, 45, 1e-9) {
		t.Errorf("crossing %v ok=%v", x, ok)
	}
	// Crossing behind `from` is not a forecast.
	if _, ok := f.CrossingTime(0.95, 50); ok {
		t.Error("crossing in the past accepted")
	}
	// Flat lines never cross.
	flat := LinearFit{Slope: 0, Intercept: 0.5}
	if _, ok := flat.CrossingTime(0.95, 0); ok {
		t.Error("flat line crossed")
	}
}

func TestFitSeries(t *testing.T) {
	f := FitSeries([]float64{10, 12, 14, 16})
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 10, 1e-12) {
		t.Errorf("series fit %+v", f)
	}
}

// Property: R² stays in [0,1] and residuals of the fitted line never exceed
// those of a flat mean line.
func TestQuickFitQuality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(ys []float64) bool {
		var clean []float64
		for _, y := range ys {
			if y == y && y < 1e8 && y > -1e8 { // drop NaN/huge
				clean = append(clean, y)
			}
		}
		f := FitSeries(clean)
		if f.R2 < -1e-9 || f.R2 > 1+1e-9 {
			return false
		}
		if len(clean) < 2 {
			return true
		}
		mean := Mean(clean)
		var sseFit, sseMean float64
		for i, y := range clean {
			d1 := y - (f.Intercept + f.Slope*float64(i))
			d2 := y - mean
			sseFit += d1 * d1
			sseMean += d2 * d2
		}
		return sseFit <= sseMean*(1+1e-9)+1e-9
	}, cfg); err != nil {
		t.Error(err)
	}
}

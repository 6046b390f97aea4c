package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasics(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Fatalf("Variance singleton = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 2.0 / 5.0
	if got := CV(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("CV = %v, want %v", got, want)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV of zero-mean = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("Median(nil) err = %v, want ErrEmpty", err)
	}
	m, err := Median([]float64{3, 1, 2})
	if err != nil || m != 2 {
		t.Fatalf("Median odd = %v, %v", m, err)
	}
	m, err = Median([]float64{4, 1, 3, 2})
	if err != nil || m != 2.5 {
		t.Fatalf("Median even = %v, %v", m, err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated its input: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile out of range should error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
	got, err := Quantile([]float64{7}, 0.9)
	if err != nil || got != 7 {
		t.Fatalf("Quantile singleton = %v, %v", got, err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) should error")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) should error")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 100})
	if err != nil || !almostEq(g, 10, 1e-9) {
		t.Fatalf("GeoMean = %v, %v", g, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Fatal("GeoMean with negative should error")
	}
	if _, err := GeoMean(nil); err != ErrEmpty {
		t.Fatal("GeoMean(nil) should error")
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	out := MovingAverage(xs, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Fatalf("MovingAverage[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// window 1 (and anything smaller) is identity
	out = MovingAverage(xs, 0)
	for i := range xs {
		if out[i] != xs[i] {
			t.Fatalf("identity MA failed at %d: %v", i, out[i])
		}
	}
	// even windows are widened to the next odd value
	a := MovingAverage(xs, 4)
	b := MovingAverage(xs, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("even window not widened at %d", i)
		}
	}
}

// Property: mean is bounded by min and max.
func TestPropMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		mn, _ := Min(clean)
		mx, _ := Max(clean)
		return m >= mn-1e-6 && m <= mx+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is non-negative and invariant under translation.
func TestPropVarianceShiftInvariant(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			shift = 1
		}
		v1 := Variance(clean)
		shifted := make([]float64, len(clean))
		for i, x := range clean {
			shifted[i] = x + shift
		}
		v2 := Variance(shifted)
		tol := 1e-6 * (1 + math.Abs(v1))
		return v1 >= 0 && math.Abs(v1-v2) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

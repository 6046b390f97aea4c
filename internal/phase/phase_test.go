package phase

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// synth builds a noisy piecewise-constant series.
func synth(levels []float64, lens []int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var ys []float64
	for i, level := range levels {
		for j := 0; j < lens[i]; j++ {
			ys = append(ys, level*(1+noise*(2*rng.Float64()-1)))
		}
	}
	return ys
}

func TestDetectTwoPhases(t *testing.T) {
	ys := synth([]float64{1.0, 0.03}, []int{100, 200}, 0.05, 1)
	segs := Detect(ys)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2: %+v", len(segs), segs)
	}
	if segs[0].Start != 0 || segs[1].End != len(ys) {
		t.Fatalf("coverage: %+v", segs)
	}
	// Boundary within a few samples of 100.
	if b := segs[1].Start; b < 95 || b > 108 {
		t.Fatalf("boundary = %d, want ~100", b)
	}
	if !(segs[0].Mean > 0.9 && segs[1].Mean < 0.1) {
		t.Fatalf("means: %+v", segs)
	}
}

func TestDetectIgnoresPulses(t *testing.T) {
	// A low phase with brief high pulses (the Figure 3a shape): pulses
	// shorter than minLen must not split the segment.
	ys := synth([]float64{1.0}, []int{50}, 0.02, 2)
	low := synth([]float64{0.05}, []int{150}, 0.02, 3)
	for i := 10; i < len(low); i += 25 {
		low[i] = 1.0 // single-sample pulse
	}
	ys = append(ys, low...)
	segs := Detect(ys)
	if len(segs) != 2 {
		t.Fatalf("pulses must not fragment: %d segments %+v", len(segs), segs)
	}
}

func TestDetectMultiPhase(t *testing.T) {
	ys := synth([]float64{1.2, 0.7, 1.1, 0.6}, []int{80, 90, 70, 60}, 0.03, 4)
	segs := Detect(ys)
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4: %+v", len(segs), segs)
	}
	// Means alternate high/low as constructed.
	if !(segs[0].Mean > segs[1].Mean && segs[2].Mean > segs[3].Mean && segs[1].Mean < segs[2].Mean) {
		t.Fatalf("means: %+v", segs)
	}
}

func TestDetectEdgeCases(t *testing.T) {
	if segs := Detect(nil); segs != nil {
		t.Fatal("empty input yields no segments")
	}
	segs := Detect([]float64{1})
	if len(segs) != 1 || segs[0].Len() != 1 {
		t.Fatalf("singleton: %+v", segs)
	}
	// Constant series: one segment.
	flat := synth([]float64{2}, []int{300}, 0, 5)
	if segs := Detect(flat); len(segs) != 1 {
		t.Fatalf("flat series: %+v", segs)
	}
	// Zero-valued series must not divide by zero.
	zeros := make([]float64, 50)
	if segs := Detect(zeros); len(segs) != 1 {
		t.Fatalf("zero series: %+v", segs)
	}
}

func TestDropPoint(t *testing.T) {
	ys := synth([]float64{1.0, 0.03}, []int{120, 80}, 0.05, 6)
	d := DropPoint(ys)
	if d < 115 || d > 125 {
		t.Fatalf("drop = %d, want ~120", d)
	}
	if DropPoint(synth([]float64{1.0}, []int{100}, 0.05, 7)) != -1 {
		t.Fatal("healthy series has no drop")
	}
	if DropPoint(nil) != -1 || DropPoint([]float64{1}) != -1 {
		t.Fatal("degenerate inputs")
	}
	if DropPoint(make([]float64, 10)) != -1 {
		t.Fatal("all-zero series has no healthy level")
	}
}

func TestFastForward(t *testing.T) {
	// init (short, high) then main phase: fast-forward lands at the
	// main phase's first instruction.
	ys := synth([]float64{1.8, 0.9}, []int{30, 270}, 0.02, 8)
	xs := make([]float64, len(ys))
	cum := 0.0
	for i, y := range ys {
		cum += y * 1000 // instructions proportional to IPC
		xs[i] = cum
	}
	ff, err := FastForward(xs, ys, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// The boundary is near sample 30.
	if ff < xs[25] || ff > xs[40] {
		t.Fatalf("fast-forward = %v, want near xs[30]=%v", ff, xs[30])
	}
	// Single-phase: no skip.
	flat := synth([]float64{1.0}, []int{100}, 0.02, 9)
	ff2, err := FastForward(xs[:100], flat, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if ff2 != xs[0] {
		t.Fatalf("single phase fast-forward = %v, want %v", ff2, xs[0])
	}
	if _, err := FastForward(nil, nil, 0.2); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := FastForward(xs, ys[:10], 0.2); err == nil {
		t.Fatal("misaligned input must error")
	}
}

// Property: segments always partition the series exactly (coverage with
// no gaps or overlaps) for arbitrary level/length structures.
func TestPropSegmentsPartition(t *testing.T) {
	f := func(seed int64, l1, l2, l3 uint8) bool {
		lens := []int{int(l1)%80 + 10, int(l2)%80 + 10, int(l3)%80 + 10}
		ys := synth([]float64{1.5, 0.4, 1.1}, lens, 0.03, seed)
		segs := Detect(ys)
		if len(segs) == 0 {
			return false
		}
		pos := 0
		for _, s := range segs {
			if s.Start != pos || s.End <= s.Start {
				return false
			}
			pos = s.End
		}
		return pos == len(ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

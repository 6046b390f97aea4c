// Package phase detects program phases in metric time series. The
// paper's §3.2 argues that coarse counter samples expose application
// phases "at the full running speed of the application" and proposes
// using the resulting profiles to pick per-platform fast-forward points
// for simulation studies (the Figure 8 use case, refining SimPoints).
// This package provides that analysis: change-point segmentation of an
// IPC (or any metric) series, plus the drop detector used to spot the
// §3.1 anomaly automatically.
package phase

import (
	"fmt"
	"math"

	"tiptop/internal/stats"
)

// Segment is one detected phase: a half-open sample-index interval with
// its mean metric level.
type Segment struct {
	Start, End int // [Start, End) in sample indices
	Mean       float64
}

// Len returns the segment length in samples.
func (s Segment) Len() int { return s.End - s.Start }

// The detector's tuning.
const (
	// minLen is the minimum segment length in samples: shorter
	// excursions are treated as noise, like the brief pulses of
	// Figure 3 (a).
	minLen = 5
	// threshold is the relative level change that opens a new segment
	// (25 %): the paper's phases differ by far more.
	threshold = 0.25
	// smooth is the moving-average window applied before detection.
	smooth = 3
)

// Detect segments ys into phases. The algorithm is a running-mean
// comparator: a candidate boundary opens when the smoothed signal
// departs from the current segment's mean by more than threshold
// (relatively), and commits once the departure persists for minLen
// samples; the departure onset becomes the boundary. This is
// deliberately simple — the paper's point is that phases are visible to
// the naked eye at 1–10 s sampling — but it is robust to the pulse
// noise the R workload produces.
func Detect(ys []float64) []Segment {
	if len(ys) == 0 {
		return nil
	}
	smoothed := stats.MovingAverage(ys, smooth)

	var segs []Segment
	start := 0
	mean := smoothed[0]
	n := 1.0
	departAt := -1

	relDiff := func(a, b float64) float64 {
		denom := math.Abs(a)
		if math.Abs(b) > denom {
			denom = math.Abs(b)
		}
		if denom == 0 {
			return 0
		}
		return math.Abs(a-b) / denom
	}

	commit := func(end int) {
		if end <= start {
			return
		}
		segs = append(segs, Segment{Start: start, End: end, Mean: stats.Mean(ys[start:end])})
	}

	for i := 1; i < len(smoothed); i++ {
		if relDiff(smoothed[i], mean) > threshold {
			if departAt < 0 {
				departAt = i
			}
			// Persistent departure: commit the old segment. The new
			// baseline is the *latest* smoothed value — the departure
			// window straddles the transition ramp and its mean would
			// immediately trigger a spurious second boundary.
			if i-departAt+1 >= minLen {
				commit(departAt)
				start = departAt
				mean = smoothed[i]
				n = 1
				departAt = -1
			}
			continue
		}
		// Back inside the band: the departure was a pulse.
		departAt = -1
		mean = (mean*n + smoothed[i]) / (n + 1)
		n++
	}
	commit(len(ys))
	return mergeShort(ys, segs)
}

// mergeShort folds segments shorter than minLen into their neighbour:
// level transitions pass through the smoothing window and can leave a
// ramp sliver between two genuine phases.
func mergeShort(ys []float64, segs []Segment) []Segment {
	if len(segs) <= 1 {
		return segs
	}
	out := make([]Segment, 0, len(segs))
	for _, s := range segs {
		if s.Len() >= minLen || len(out) == 0 && s.End == len(ys) {
			out = append(out, s)
			continue
		}
		if len(out) > 0 {
			// Fold into the previous segment.
			prev := &out[len(out)-1]
			prev.End = s.End
			prev.Mean = stats.Mean(ys[prev.Start:prev.End])
		} else {
			// Leading sliver: prepend to the next by carrying the
			// start forward (handled by extending the sliver itself
			// and merging when the next long segment arrives).
			out = append(out, s)
		}
	}
	// A leading sliver followed by a long segment: fold forward.
	if len(out) >= 2 && out[0].Len() < minLen {
		out[1].Start = out[0].Start
		out[1].Mean = stats.Mean(ys[out[1].Start:out[1].End])
		out = out[1:]
	}
	return out
}

// DropPoint returns the index where the series first collapses below
// half of its established healthy level, or -1 when no collapse exists.
// It is the automated version of the paper's §3.1 observation ("After
// 953 time steps, the IPC suddenly drops").
func DropPoint(ys []float64) int {
	if len(ys) < 2 {
		return -1
	}
	warm := 5
	if len(ys) < warm {
		warm = len(ys)
	}
	healthy := stats.Mean(ys[:warm])
	if healthy <= 0 {
		return -1
	}
	for i, y := range ys {
		if y < healthy/2 {
			return i
		}
	}
	return -1
}

// FastForward suggests a per-platform fast-forward point (in cumulative
// instructions) for simulation studies: the start of the first segment
// that is at least minFrac of the run, skipping the initialization
// phase — the Figure 8 methodology. xs are cumulative instruction counts
// aligned with ys.
func FastForward(xs, ys []float64, minFrac float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, fmt.Errorf("phase: need aligned non-empty series")
	}
	if minFrac <= 0 || minFrac >= 1 {
		minFrac = 0.1
	}
	segs := Detect(ys)
	total := len(ys)
	for _, s := range segs {
		if s.Start == 0 {
			continue // skip initialization
		}
		if float64(s.Len())/float64(total) >= minFrac {
			return xs[s.Start], nil
		}
	}
	// Single-phase program: no skipping needed.
	return xs[0], nil
}

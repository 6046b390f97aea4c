package history

// The reference the packed ring is compared with: the array ring as it
// stood before chunks — Capacity points and Capacity × columns values
// preallocated per task, written in place — with the loop copySeries read
// it by, and an observer that keeps one per task the way the Recorder
// admits and restarts them. Test-only; push is the old code verbatim.

import (
	"math"
	"slices"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

type refRing struct {
	start   time.Duration
	ncols   int
	points  []point
	vals    []float64 // len = len(points) * ncols, row-major
	head, n int
}

func (rg *refRing) push(p point, values []float64, ncols int) {
	if ncols != rg.ncols {
		// The screen's column count was learned after this ring was
		// created (a first refresh with no rows): rebuild the value
		// matrix once and restart the series.
		rg.ncols = ncols
		rg.vals = make([]float64, len(rg.points)*ncols)
		rg.head, rg.n = 0, 0
	}
	c := len(rg.points)
	idx := (rg.head + rg.n) % c
	if rg.n == c {
		rg.head = (rg.head + 1) % c
	} else {
		rg.n++
	}
	rg.points[idx] = p
	copy(rg.vals[idx*ncols:(idx+1)*ncols], values)
}

// series is the body of the old copySeries.
func (rg *refRing) series() []Point {
	ncols := rg.ncols
	out := make([]Point, 0, rg.n)
	for i := 0; i < rg.n; i++ {
		idx := (rg.head + i) % len(rg.points)
		p := &rg.points[idx]
		out = append(out, Point{
			TimeSeconds: p.t.Seconds(),
			CPUPct:      p.cpu,
			IPC:         p.ipc(),
			Values:      append([]float64(nil), rg.vals[idx*ncols:(idx+1)*ncols]...),
			Instr:       p.instr,
			Cycles:      p.cycles,
			Misses:      p.misses,
		})
	}
	return out
}

// refRecorder keeps a refRing per task: admitted on first sight,
// restarted when the id comes back with another start time. It never
// evicts; the tests that use it stay under MaxSeries.
type refRecorder struct {
	capacity, ncols int
	rings           map[hpm.TaskID]*refRing
}

func newRefRecorder(capacity, ncols int) *refRecorder {
	return &refRecorder{capacity: capacity, ncols: ncols, rings: make(map[hpm.TaskID]*refRing)}
}

func (r *refRecorder) Observe(s *core.Sample) {
	for i := range s.Rows {
		row := &s.Rows[i]
		rg := r.rings[row.Info.ID]
		switch {
		case rg == nil:
			rg = &refRing{
				start:  row.Info.StartTime,
				ncols:  r.ncols,
				points: make([]point, r.capacity),
				vals:   make([]float64, r.capacity*r.ncols),
			}
			r.rings[row.Info.ID] = rg
		case rg.start != row.Info.StartTime:
			rg.head, rg.n = 0, 0
			rg.start = row.Info.StartTime
		}
		p := point{t: s.Time, cpu: row.CPUPct}
		p.instr, p.cycles, p.misses = row.Basics()
		// The old push left a narrow row's missing columns holding the
		// values of the point it overwrote (TestNarrowRowReadsZero); the
		// reference is handed the row the way it is recorded now.
		values := row.Values
		if len(values) < r.ncols {
			values = append(make([]float64, 0, r.ncols), values...)[:r.ncols]
		}
		rg.push(p, values, r.ncols)
	}
}

// sameBits reports whether two values are the same float64, NaN payload
// and the sign of zero included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameValues(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, sameBits)
}

func samePoint(a, b *Point) bool {
	return sameBits(a.TimeSeconds, b.TimeSeconds) && sameBits(a.CPUPct, b.CPUPct) && sameBits(a.IPC, b.IPC) &&
		a.Instr == b.Instr && a.Cycles == b.Cycles && a.Misses == b.Misses && sameValues(a.Values, b.Values)
}

// checkSeries compares what rec's History and AllSeries return with the
// reference rings, point by point to the float bit.
func (r *refRecorder) checkSeries(tb testing.TB, rec *Recorder) {
	tb.Helper()
	all := rec.AllSeries()
	if len(all) != len(r.rings) {
		tb.Fatalf("AllSeries has %d series, the reference %d", len(all), len(r.rings))
	}
	for i := range all {
		id := hpm.TaskID{PID: all[i].PID, TID: all[i].TID}
		hist := mustHistory(tb, rec, id.PID)
		if len(hist) != 1 {
			tb.Fatalf("History(%d) has %d series, want 1", id.PID, len(hist))
		}
		want := r.rings[id].series()
		for name, got := range map[string][]Point{"AllSeries": all[i].Points, "History": hist[0].Points} {
			if len(got) != len(want) {
				tb.Fatalf("%s of pid %d has %d points, the reference %d", name, id.PID, len(got), len(want))
			}
			for j := range got {
				if !samePoint(&got[j], &want[j]) {
					tb.Fatalf("%s of pid %d, point %d of %d: %+v, the reference has %+v", name, id.PID, j, len(got), got[j], want[j])
				}
			}
		}
	}
}

// checkView compares a refilled View's tasks with the newest point of
// the reference ring of every task the last sample s held.
func (r *refRecorder) checkView(tb testing.TB, rec *Recorder, v *View, s *core.Sample) {
	tb.Helper()
	rec.View(v)
	if len(v.Tasks) != len(s.Rows) {
		tb.Fatalf("the view has %d tasks, the sample %d rows", len(v.Tasks), len(s.Rows))
	}
	for i := range v.Tasks {
		t := &v.Tasks[i]
		rg := r.rings[hpm.TaskID{PID: t.PID, TID: t.TID}]
		if rg == nil || rg.n == 0 {
			tb.Fatalf("the view has pid %d, the reference has no point of it", t.PID)
		}
		last := (rg.head + rg.n - 1) % len(rg.points)
		p, vals := &rg.points[last], rg.vals[last*rg.ncols:(last+1)*rg.ncols]
		if !sameBits(t.CPUPct, p.cpu) || !sameBits(t.IPC, p.ipc()) || !slices.EqualFunc(t.Values, vals, sameBits) {
			tb.Fatalf("the view's pid %d reads cpu %v ipc %v values %v, the reference cpu %v ipc %v values %v",
				t.PID, t.CPUPct, t.IPC, t.Values, p.cpu, p.ipc(), vals)
		}
	}
}

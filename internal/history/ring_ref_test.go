package history

// The reference History is compared with: its rule written the plainest
// way — each task's points of its current run, in a ring of the
// recorder's newest Capacity refreshes, each stamped with the keeper's
// clock after its refresh — and an observer that admits and restarts
// tasks the way the Recorder does. Test-only; it replaced the array ring
// the packed rings were held to, when the rings gave way to the keeper.

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// refPoint is one kept point and the refresh it was observed in.
type refPoint struct {
	refresh uint64
	p       Point
}

// refTask is one task's current run: labels as first seen, the points
// of its newest Capacity refreshes and how many it has had in all.
type refTask struct {
	start      time.Duration
	user, comm string
	points     []refPoint // oldest first
	n          int
}

// refRecorder keeps a refTask per task: admitted on first sight,
// restarted when the id comes back with another start time. It never
// evicts; the tests that use it stay under MaxSeries. Observe it after
// the recorder, so that keeper holds the refresh's time.
type refRecorder struct {
	capacity, ncols int
	keeper          Keeper
	refresh         uint64
	tasks           map[hpm.TaskID]*refTask
}

func newRefRecorder(capacity, ncols int, keeper Keeper) *refRecorder {
	return &refRecorder{capacity: capacity, ncols: ncols, keeper: keeper, tasks: make(map[hpm.TaskID]*refTask)}
}

func (r *refRecorder) Observe(s *core.Sample) {
	r.refresh++
	now := float64(r.keeper.LastTime().Milliseconds()) / 1000
	for i := range s.Rows {
		row := &s.Rows[i]
		tk := r.tasks[row.Info.ID]
		if tk == nil || tk.start != row.Info.StartTime {
			tk = &refTask{start: row.Info.StartTime, user: row.Info.User, comm: row.Info.Comm}
			r.tasks[row.Info.ID] = tk
		}
		p := point{cpu: row.CPUPct}
		p.instr, p.cycles, p.misses = row.Basics()
		// A narrow row reads 0 in the columns it lacks, a wide one loses
		// the extra; no columns, no values.
		var values []float64
		if r.ncols > 0 {
			values = make([]float64, r.ncols)
			copy(values, row.Values)
		}
		tk.points = append(tk.points, refPoint{r.refresh, Point{
			TimeSeconds: now, CPUPct: p.cpu, IPC: p.ipc(), Values: values,
			Instr: p.instr, Cycles: p.cycles, Misses: p.misses,
		}})
		tk.n++
		for !r.inWindow(tk.points[0].refresh) {
			tk.points = tk.points[1:]
		}
	}
}

// inWindow reports whether refresh is among the newest Capacity.
func (r *refRecorder) inWindow(refresh uint64) bool {
	return refresh+uint64(r.capacity) > r.refresh
}

// series is what History should answer for pid: the window's part of
// each task of pid, by tid.
func (r *refRecorder) series(pid int) []Series {
	var out []Series
	for id, tk := range r.tasks {
		if id.PID != pid {
			continue
		}
		var points []Point
		for _, rp := range tk.points {
			if r.inWindow(rp.refresh) {
				points = append(points, rp.p)
			}
		}
		if len(points) > 0 {
			out = append(out, Series{PID: id.PID, TID: id.TID, User: tk.user, Command: tk.comm,
				Alive: tk.points[len(tk.points)-1].refresh == r.refresh, Points: points})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
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

// checkSeries compares what rec's PIDs and History return with the
// reference, series by series and point by point to the float bit —
// every pid it ever saw, those last seen before the window included.
func (r *refRecorder) checkSeries(tb testing.TB, rec *Recorder) {
	tb.Helper()
	var pids []int
	for id := range r.tasks {
		if len(r.series(id.PID)) > 0 && !slices.Contains(pids, id.PID) {
			pids = append(pids, id.PID)
		}
	}
	slices.Sort(pids)
	if got := rec.PIDs(); !slices.Equal(got, pids) {
		tb.Fatalf("PIDs = %v, the reference %v", got, pids)
	}
	for id := range r.tasks {
		got, want := mustHistory(tb, rec, id.PID), r.series(id.PID)
		if len(got) != len(want) {
			tb.Fatalf("History(%d) has %d series, the reference %d", id.PID, len(got), len(want))
		}
		for i := range got {
			g, w := &got[i], &want[i]
			if g.PID != w.PID || g.TID != w.TID || g.User != w.User || g.Command != w.Command || g.Alive != w.Alive {
				tb.Fatalf("History(%d) series %d is %d/%d %s %s alive %v, the reference %d/%d %s %s alive %v", id.PID, i,
					g.PID, g.TID, g.User, g.Command, g.Alive, w.PID, w.TID, w.User, w.Command, w.Alive)
			}
			if len(g.Points) != len(w.Points) {
				tb.Fatalf("History of %d/%d has %d points, the reference %d", g.PID, g.TID, len(g.Points), len(w.Points))
			}
			for j := range g.Points {
				if !samePoint(&g.Points[j], &w.Points[j]) {
					tb.Fatalf("History of %d/%d, point %d of %d: %+v, the reference has %+v", g.PID, g.TID, j, len(g.Points), g.Points[j], w.Points[j])
				}
			}
		}
	}
}

// checkView compares a refilled View's tasks with the newest point of
// the reference of every task the last sample s held.
func (r *refRecorder) checkView(tb testing.TB, rec *Recorder, v *View, s *core.Sample) {
	tb.Helper()
	rec.View(v)
	if len(v.Tasks) != len(s.Rows) {
		tb.Fatalf("the view has %d tasks, the sample %d rows", len(v.Tasks), len(s.Rows))
	}
	for i := range v.Tasks {
		t := &v.Tasks[i]
		tk := r.tasks[hpm.TaskID{PID: t.PID, TID: t.TID}]
		if tk == nil || len(tk.points) == 0 {
			tb.Fatalf("the view has pid %d, the reference has no point of it", t.PID)
		}
		p := &tk.points[len(tk.points)-1].p
		if !sameBits(t.CPUPct, p.CPUPct) || !sameBits(t.IPC, p.IPC) || !slices.EqualFunc(t.Values, p.Values, sameBits) {
			tb.Fatalf("the view's pid %d reads cpu %v ipc %v values %v, the reference cpu %v ipc %v values %v",
				t.PID, t.CPUPct, t.IPC, t.Values, p.CPUPct, p.IPC, p.Values)
		}
	}
}

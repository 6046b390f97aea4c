package history

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// mkSample builds a hand-rolled engine sample. Each row spec is
// {pid, user, comm, cpuPct, instr, cycles}.
type rowSpec struct {
	pid          int
	user, comm   string
	cpuPct       float64
	instr, cycle uint64
}

func mkSample(t time.Duration, specs []rowSpec) *core.Sample {
	s := &core.Sample{Time: t}
	for _, sp := range specs {
		s.Rows = append(s.Rows, core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: sp.pid, TID: sp.pid},
				User: sp.user, Comm: sp.comm, State: "R",
			},
			CPUPct: sp.cpuPct,
			Values: []float64{float64(sp.instr) / float64(sp.cycle), 42},
			Counts: []uint64{sp.instr, sp.cycle, sp.instr / 100},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses),
			Valid:  true,
		})
	}
	return s
}

func TestRecorderSeriesAndSnapshot(t *testing.T) {
	r := New(Options{Capacity: 8})
	r.SetColumns([]string{"ipc", "const"})
	for i := 1; i <= 3; i++ {
		r.Observe(mkSample(time.Duration(i)*time.Second, []rowSpec{
			{pid: 1, user: "alice", comm: "mcf", cpuPct: 90, instr: 2e9, cycle: 1e9},
			{pid: 2, user: "bob", comm: "astar", cpuPct: 50, instr: 1e9, cycle: 2e9},
		}))
	}

	series := mustHistory(t, r, 1)
	if len(series) != 1 {
		t.Fatalf("series for pid 1 = %d, want 1", len(series))
	}
	s := series[0]
	if s.User != "alice" || s.Command != "mcf" || !s.Alive {
		t.Fatalf("series meta = %+v", s)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	p := s.Points[2]
	if p.TimeSeconds != 3 || p.CPUPct != 90 || p.IPC != 2 {
		t.Fatalf("last point = %+v", p)
	}
	if len(p.Values) != 2 || p.Values[1] != 42 {
		t.Fatalf("point values = %v", p.Values)
	}
	if got := mustHistory(t, r, 99); got != nil {
		t.Fatalf("unknown pid returned %v", got)
	}
	if pids := r.PIDs(); len(pids) != 2 || pids[0] != 1 || pids[1] != 2 {
		t.Fatalf("PIDs = %v", pids)
	}

	snap := r.Snapshot()
	if snap.Refreshes != 3 || snap.TimeSeconds != 3 {
		t.Fatalf("snapshot meta = %+v", snap)
	}
	if len(snap.Tasks) != 2 || snap.Tasks[0].PID != 1 || snap.Tasks[1].PID != 2 {
		t.Fatalf("snapshot tasks = %+v", snap.Tasks)
	}
	if got := snap.Machine.Tasks; got != 2 {
		t.Fatalf("machine tasks = %d", got)
	}
	// Machine IPC of the last refresh: (2e9+1e9)/(1e9+2e9) = 1.
	if got := snap.Machine.IPC; got != 1 {
		t.Fatalf("machine IPC = %v", got)
	}
	if got := snap.Machine.Instructions; got != 9e9 {
		t.Fatalf("machine cumulative instructions = %v", got)
	}
	alice := snap.Users["alice"]
	if alice.Tasks != 1 || alice.IPC != 2 || alice.CPUPct != 90 {
		t.Fatalf("alice aggregate = %+v", alice)
	}
	mcf := snap.Commands["mcf"]
	if mcf.Instructions != 6e9 {
		t.Fatalf("mcf cumulative instructions = %v", mcf.Instructions)
	}
	if len(snap.Columns) != 2 || snap.Columns[0] != "ipc" {
		t.Fatalf("columns = %v", snap.Columns)
	}
}

func TestRingWrapsAtCapacity(t *testing.T) {
	r := New(Options{Capacity: 4})
	r.SetColumns([]string{"ipc", "const"})
	for i := 1; i <= 10; i++ {
		r.Observe(mkSample(time.Duration(i)*time.Second, []rowSpec{
			{pid: 7, user: "u", comm: "c", cpuPct: float64(i), instr: 1e9, cycle: 1e9},
		}))
	}
	s := mustHistory(t, r, 7)[0]
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want ring capacity 4", len(s.Points))
	}
	// Oldest retained is refresh 7, newest is 10.
	if s.Points[0].TimeSeconds != 7 || s.Points[3].TimeSeconds != 10 {
		t.Fatalf("ring window = [%v, %v], want [7, 10]",
			s.Points[0].TimeSeconds, s.Points[3].TimeSeconds)
	}
	if s.Points[0].CPUPct != 7 {
		t.Fatalf("oldest point cpu = %v", s.Points[0].CPUPct)
	}
}

func TestWindowedRates(t *testing.T) {
	r := New(Options{Capacity: 16, Window: 4 * time.Second})
	r.SetColumns([]string{"ipc", "const"})
	// 1e9 cycles and 2e9 instructions per second for 10 seconds.
	for i := 1; i <= 10; i++ {
		r.Observe(mkSample(time.Duration(i)*time.Second, []rowSpec{
			{pid: 1, user: "u", comm: "c", cpuPct: 100, instr: 2e9, cycle: 1e9},
		}))
	}
	m := r.Snapshot().Machine
	if m.WindowIPC < 1.99 || m.WindowIPC > 2.01 {
		t.Fatalf("window IPC = %v, want 2", m.WindowIPC)
	}
	// 2e9 instructions per second = 2000 MIPS.
	if m.WindowMIPS < 1999 || m.WindowMIPS > 2001 {
		t.Fatalf("window MIPS = %v, want 2000", m.WindowMIPS)
	}
}

func TestDeadTasksLeaveAggregatesButKeepHistory(t *testing.T) {
	r := New(Options{Capacity: 8})
	r.SetColumns([]string{"ipc", "const"})
	r.Observe(mkSample(1*time.Second, []rowSpec{
		{pid: 1, user: "u", comm: "a", cpuPct: 10, instr: 1e9, cycle: 1e9},
		{pid: 2, user: "u", comm: "b", cpuPct: 20, instr: 1e9, cycle: 1e9},
	}))
	r.Observe(mkSample(2*time.Second, []rowSpec{
		{pid: 2, user: "u", comm: "b", cpuPct: 20, instr: 1e9, cycle: 1e9},
	}))
	snap := r.Snapshot()
	if len(snap.Tasks) != 1 || snap.Tasks[0].PID != 2 {
		t.Fatalf("live tasks = %+v", snap.Tasks)
	}
	if snap.Machine.Tasks != 1 {
		t.Fatalf("machine live tasks = %d", snap.Machine.Tasks)
	}
	// Command "a" saw no rows this refresh: live fields zero, totals kept.
	a := snap.Commands["a"]
	if a.Tasks != 0 || a.IPC != 0 {
		t.Fatalf("dead command live fields = %+v", a)
	}
	if a.Instructions != 1e9 {
		t.Fatalf("dead command totals = %v", a.Instructions)
	}
	// History of the exited task survives, marked not alive.
	s := mustHistory(t, r, 1)
	if len(s) != 1 || s[0].Alive || len(s[0].Points) != 1 {
		t.Fatalf("exited series = %+v", s)
	}
}

func TestEvictionPrefersDeadSeries(t *testing.T) {
	r := New(Options{Capacity: 2, MaxSeries: 3})
	r.SetColumns([]string{"ipc", "const"})
	// Three tasks, then pid 1 dies, then a fourth task arrives.
	r.Observe(mkSample(1*time.Second, []rowSpec{
		{pid: 1, user: "u", comm: "a", instr: 1, cycle: 1},
		{pid: 2, user: "u", comm: "b", instr: 1, cycle: 1},
		{pid: 3, user: "u", comm: "c", instr: 1, cycle: 1},
	}))
	r.Observe(mkSample(2*time.Second, []rowSpec{
		{pid: 2, user: "u", comm: "b", instr: 1, cycle: 1},
		{pid: 3, user: "u", comm: "c", instr: 1, cycle: 1},
		{pid: 4, user: "u", comm: "d", instr: 1, cycle: 1},
	}))
	if got := mustHistory(t, r, 1); got != nil {
		t.Fatalf("dead pid 1 must be evicted, got %+v", got)
	}
	for _, pid := range []int{2, 3, 4} {
		if got := mustHistory(t, r, pid); len(got) != 1 {
			t.Fatalf("live pid %d evicted", pid)
		}
	}
}

// TestPIDReuseStartsFreshSeries: when the OS recycles a TaskID for a
// new process (detected by StartTime), the recorder must not splice the
// two tasks' histories under the old labels.
func TestPIDReuseStartsFreshSeries(t *testing.T) {
	r := New(Options{Capacity: 8})
	r.SetColumns([]string{"ipc", "const"})
	old := mkSample(1*time.Second, []rowSpec{
		{pid: 5, user: "alice", comm: "postgres", cpuPct: 10, instr: 1e9, cycle: 1e9},
	})
	r.Observe(old)
	r.Observe(mkSample(2*time.Second, nil)) // pid 5 exits

	// pid 5 comes back as a different process.
	reused := mkSample(3*time.Second, []rowSpec{
		{pid: 5, user: "bob", comm: "make", cpuPct: 90, instr: 2e9, cycle: 1e9},
	})
	reused.Rows[0].Info.StartTime = 2500 * time.Millisecond
	r.Observe(reused)

	series := mustHistory(t, r, 5)
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	s := series[0]
	if s.User != "bob" || s.Command != "make" {
		t.Fatalf("recycled pid kept stale labels: %+v", s)
	}
	if len(s.Points) != 1 || s.Points[0].TimeSeconds != 3 {
		t.Fatalf("recycled pid kept the dead task's points: %+v", s.Points)
	}
}

// TestChangedColumnsRestartRings: a recorder following a daemon that
// comes back on another screen takes the new column list's width, and
// no value recorded under one list is read under another's names; the
// same list set again keeps the history, and the aggregates keep theirs
// across a change.
func TestChangedColumnsRestartRings(t *testing.T) {
	row := func(now time.Duration, vals ...float64) *core.Sample {
		s := mkSample(now, []rowSpec{{pid: 1, user: "u", comm: "c", cpuPct: 50, instr: 2e9, cycle: 1e9}})
		s.Rows[0].Values = vals
		return s
	}
	points := func(r *Recorder) []Point {
		t.Helper()
		series := r.AllSeries()
		if len(series) != 1 {
			t.Fatalf("series = %d, want 1", len(series))
		}
		return series[0].Points
	}
	r := New(Options{})
	r.SetColumns([]string{"ipc", "dmis", "l3", "ref"})
	r.Observe(row(time.Second, 0.5, 1, 2, 3))
	r.SetColumns([]string{"ipc", "dmis", "l3", "ref"})
	r.Observe(row(2*time.Second, 0.5, 1, 2, 3))
	if got := len(points(r)); got != 2 {
		t.Fatalf("the same list set again left %d points, want 2", got)
	}

	wide := []string{"ipc", "ref", "dmis", "l3", "a", "b", "c", "d", "e", "f", "g", "h", "i"}
	r.SetColumns(wide)
	if got := points(r); len(got) != 0 {
		t.Fatalf("points recorded under the old list survive the change: %+v", got)
	}
	if snap := r.Snapshot(); len(snap.Tasks) != 0 {
		t.Fatalf("before a refresh on the new list the view shows %+v", snap.Tasks)
	}
	vals := []float64{0.5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	r.Observe(row(3*time.Second, vals...))
	snap := r.Snapshot()
	if len(snap.Tasks) != 1 || !reflect.DeepEqual(snap.Tasks[0].Values, vals) {
		t.Fatalf("after the change the view holds %+v, want values %v", snap.Tasks, vals)
	}
	if got := points(r); len(got) != 1 || !reflect.DeepEqual(got[0].Values, vals) {
		t.Fatalf("after the change the series holds %+v, want one point of %v", got, vals)
	}
	if got := snap.Machine.Instructions; got != 6e9 {
		t.Fatalf("machine instructions = %v across the change, want 6e9", got)
	}

	// A list of the same width under other names restarts too: ref is
	// not read back as the dmis recorded before it.
	r.SetColumns([]string{"ipc", "dmis", "ref", "l3", "a", "b", "c", "d", "e", "f", "g", "h", "i"})
	if got := points(r); len(got) != 0 {
		t.Fatalf("a renamed list replays %+v", got)
	}

	// Without a list the rows set the width; a list of another width
	// restarts at its own.
	r = New(Options{})
	r.Observe(row(time.Second, 0.5, 1))
	r.SetColumns([]string{"ipc", "dmis", "ref"})
	r.Observe(row(2*time.Second, 0.5, 1, 2))
	if got := points(r); len(got) != 1 || !reflect.DeepEqual(got[0].Values, []float64{0.5, 1, 2}) {
		t.Fatalf("after the first list the series holds %+v, want one point of [0.5 1 2]", got)
	}
}

// TestObserveSteadyStateAllocations is the subsystem's core performance
// contract. While a ring grows it allocates a buffer per chunk — the
// first sized once more from the points that filled its 512 bytes, each
// later one from its predecessor — and its chunk list at doublings; once
// it has dropped a chunk it writes in the dropped one's buffer and
// recording a refresh allocates nothing.
func TestObserveSteadyStateAllocations(t *testing.T) {
	specs := make([]rowSpec, 200)
	for i := range specs {
		specs[i] = rowSpec{
			pid:    i + 1,
			user:   []string{"alice", "bob", "carol"}[i%3],
			comm:   []string{"mcf", "astar", "gromacs", "hmmer"}[i%4],
			cpuPct: 50, instr: 1e9, cycle: 1e9,
		}
	}
	sample := mkSample(time.Second, specs)
	// Filling: in refreshes 2…128 each ring sizes its first chunk, gets
	// its second buffer and a longer chunk list, and that is all. The
	// count is process-wide, so a stray allocation elsewhere (the
	// runtime, the test framework) only adds to it: the fewest over
	// three fresh recorders is the recorder's own.
	var r *Recorder
	fill := uint64(math.MaxUint64)
	for range 3 {
		r = New(Options{Capacity: 64})
		r.SetColumns([]string{"ipc", "const"})
		r.Observe(sample) // every ring, its first buffer and every aggregate entry
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2; i <= 2*chunkPoints; i++ {
			r.Observe(sample)
		}
		runtime.ReadMemStats(&after)
		fill = min(fill, after.Mallocs-before.Mallocs)
	}
	if want := uint64(3 * len(specs)); fill > want {
		t.Fatalf("filling two chunks allocates %d times for %d rings, want at most %d", fill, len(specs), want)
	}
	// Refresh 129 is the first to drop a chunk; from there on, nothing.
	allocs := testing.AllocsPerRun(3*chunkPoints, func() { r.Observe(sample) })
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %.1f times per refresh, want 0", allocs)
	}
	for _, rg := range r.series {
		if len(rg.chunks) != 2 {
			t.Fatalf("a wrapped ring of capacity 64 holds %d chunks, want 2", len(rg.chunks))
		}
	}
}

// TestObserveAggregatesFollowRelabel: a ring caches the aggregates its
// task folds into. A recycled pid and a task that changes user or
// command mid-life must re-resolve them — counting towards the new
// labels from that refresh on — and doing so among known users and
// commands allocates nothing.
func TestObserveAggregatesFollowRelabel(t *testing.T) {
	r := New(Options{Capacity: 8})
	r.SetColumns([]string{"ipc", "const"})
	a := mkSample(time.Second, []rowSpec{
		{pid: 1, user: "alice", comm: "mcf", cpuPct: 50, instr: 1000, cycle: 1000},
		{pid: 2, user: "bob", comm: "astar", cpuPct: 50, instr: 10, cycle: 10},
	})
	b := mkSample(2*time.Second, []rowSpec{
		{pid: 1, user: "bob", comm: "astar", cpuPct: 50, instr: 1000, cycle: 1000}, // pid 1 recycled
		{pid: 2, user: "alice", comm: "mcf", cpuPct: 50, instr: 10, cycle: 10},     // setuid + exec
	})
	b.Rows[0].Info.StartTime = time.Second
	r.Observe(a)
	r.Observe(b)
	r.Observe(b)
	snap := r.Snapshot()
	for key, want := range map[string]uint64{"alice": 1020, "bob": 2010} {
		if got := snap.Users[key].Instructions; got != want {
			t.Errorf("user %s: %d instructions, want %d", key, got, want)
		}
	}
	for key, want := range map[string]uint64{"mcf": 1020, "astar": 2010} {
		if got := snap.Commands[key].Instructions; got != want {
			t.Errorf("command %s: %d instructions, want %d", key, got, want)
		}
	}
	// The recycled pid's series restarted under its new labels; the
	// relabelled task keeps its series and the labels it was first seen with.
	if s := mustHistory(t, r, 1)[0]; s.User != "bob" || len(s.Points) != 2 {
		t.Errorf("recycled pid: user %q with %d points, want bob with 2", s.User, len(s.Points))
	}
	if s := mustHistory(t, r, 2)[0]; s.User != "bob" || len(s.Points) != 3 {
		t.Errorf("relabelled task: user %q with %d points, want bob with 3", s.User, len(s.Points))
	}
	// Every refresh from here on restarts pid 1's ring, which keeps a
	// buffer; pid 2's grows until it has dropped a chunk.
	flip := false
	alternate := func() {
		if flip = !flip; flip {
			r.Observe(a)
		} else {
			r.Observe(b)
		}
	}
	for i := 0; i < 2*chunkPoints; i++ {
		alternate()
	}
	allocs := testing.AllocsPerRun(100, alternate)
	if allocs != 0 {
		t.Fatalf("relabelling among known users and commands allocates %.1f times per refresh, want 0", allocs)
	}
}

// teeTarget records what a Recorder.Tee observer receives.
type teeTarget struct {
	samples int
	rows    int
	cols    []string
}

func (t *teeTarget) Observe(s *core.Sample)   { t.samples++; t.rows += len(s.Rows) }
func (t *teeTarget) SetColumns(cols []string) { t.cols = append([]string(nil), cols...) }

// TestTee: the tee receives every observed sample after the recorder's
// own fold, and the column names propagate regardless of whether Tee or
// SetColumns happens first.
func TestTee(t *testing.T) {
	r := New(Options{})
	tee := &teeTarget{}
	r.SetColumns([]string{"ipc", "dmis"})
	r.Tee(tee) // columns already known: pushed at attach time
	if len(tee.cols) != 2 || tee.cols[0] != "ipc" {
		t.Fatalf("columns not pushed on Tee: %v", tee.cols)
	}

	s := &core.Sample{Time: time.Second}
	s.Rows = []core.Row{{
		Info:   core.TaskInfo{ID: hpm.TaskID{PID: 1, TID: 1}, User: "u", Comm: "c"},
		Values: []float64{1, 2},
		Counts: []uint64{10, 5},
		Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles),
	}}
	r.Observe(s)
	r.Observe(s)
	if tee.samples != 2 || tee.rows != 2 {
		t.Fatalf("tee saw %d samples / %d rows, want 2 / 2", tee.samples, tee.rows)
	}
	// The recorder's own state must be unaffected by the tee.
	if snap := r.Snapshot(); snap.Refreshes != 2 {
		t.Fatalf("refreshes = %d", snap.Refreshes)
	}

	// Columns set after attaching forward to the tee too.
	r2 := New(Options{})
	tee2 := &teeTarget{}
	r2.Tee(tee2)
	r2.SetColumns([]string{"a"})
	if len(tee2.cols) != 1 || tee2.cols[0] != "a" {
		t.Fatalf("columns not forwarded by SetColumns: %v", tee2.cols)
	}

	// Detach: no further samples.
	r.Tee(nil)
	r.Observe(s)
	if tee.samples != 2 {
		t.Fatalf("detached tee still observed (%d samples)", tee.samples)
	}
}

// TestAggregatesDroppedWithLastRing: an aggregate lives as long as a
// ring in series folds into it. Under command churn at the retention
// bound the maps stay bounded and an evicted name leaves the view; a
// dead task's ring keeps its aggregates until it is evicted.
func TestAggregatesDroppedWithLastRing(t *testing.T) {
	const maxSeries = 16
	r := New(Options{Capacity: 4, MaxSeries: maxSeries})
	r.SetColumns([]string{"ipc", "const"})
	name := func(i int) string { return "cmd" + strconv.Itoa(i) }
	var v View
	for i := 0; i < 200; i++ {
		// Eight live tasks; each refresh retires the oldest command name
		// (and its pid) for a new one.
		var specs []rowSpec
		for j := i; j < i+8; j++ {
			specs = append(specs, rowSpec{pid: j + 1, user: "u" + strconv.Itoa(j%3), comm: name(j), cpuPct: 1, instr: 10, cycle: 10})
		}
		r.Observe(mkSample(time.Duration(i+1)*time.Second, specs))
		if len(r.commands) > maxSeries || len(r.users) > 3 {
			t.Fatalf("refresh %d: %d commands and %d users for %d series", i, len(r.commands), len(r.users), len(r.series))
		}
		r.View(&v)
		if len(v.Commands) != len(r.commands) {
			t.Fatalf("refresh %d: view has %d commands, recorder %d", i, len(v.Commands), len(r.commands))
		}
		for _, c := range v.Commands {
			if n, _ := strconv.Atoi(c.Key[3:]); n+maxSeries < i+8 {
				t.Fatalf("refresh %d: command %s outlived its evicted ring", i, c.Key)
			}
			if a := r.commands[c.Key]; a.refs != 1 {
				t.Fatalf("refresh %d: command %s has %d refs, want 1", i, c.Key, a.refs)
			}
		}
	}
	if len(r.commands) != maxSeries {
		t.Fatalf("%d commands for %d retained series: dead rings must keep theirs", len(r.commands), maxSeries)
	}

	// A relabel that leaves an aggregate without rings drops it; one that
	// a later row of the same refresh claims again is kept, totals and all.
	r = New(Options{Capacity: 4})
	r.Observe(mkSample(time.Second, []rowSpec{
		{pid: 1, user: "u", comm: "sh", instr: 5, cycle: 5},
		{pid: 2, user: "u", comm: "make", instr: 7, cycle: 7},
	}))
	r.Observe(mkSample(2*time.Second, []rowSpec{
		{pid: 1, user: "u", comm: "make", instr: 5, cycle: 5}, // exec: sh loses its only ring…
		{pid: 2, user: "u", comm: "sh", instr: 7, cycle: 7},   // …and gains another
	}))
	if a := r.commands["sh"]; a == nil || a.refs != 1 || a.instr != 12 {
		t.Fatalf("sh after the swap = %+v, want one ring and 12 instructions", a)
	}
	r.Observe(mkSample(3*time.Second, []rowSpec{
		{pid: 1, user: "u", comm: "make", instr: 5, cycle: 5},
		{pid: 2, user: "u", comm: "make", instr: 7, cycle: 7},
	}))
	if _, ok := r.commands["sh"]; ok || len(r.commands) != 1 {
		t.Fatalf("commands = %d with sh present %v, want make alone", len(r.commands), ok)
	}
}

// linearWindow is aggState.window as it stood before the bisection: a
// walk back from the newest checkpoint.
func linearWindow(a *aggState, now, window time.Duration) (dInstr, dCycles uint64, dt time.Duration) {
	if a.ckLen < 2 {
		return 0, 0, 0
	}
	newest := (a.ckHead + a.ckLen - 1) % aggCheckpoints
	oldest := newest
	for i := 1; i < a.ckLen; i++ {
		idx := (a.ckHead + a.ckLen - 1 - i) % aggCheckpoints
		if a.ckTime[idx] < now-window {
			break
		}
		oldest = idx
	}
	if oldest == newest {
		return 0, 0, 0
	}
	return a.ckInstr[newest] - a.ckInstr[oldest],
		a.ckCycle[newest] - a.ckCycle[oldest],
		a.ckTime[newest] - a.ckTime[oldest]
}

// TestWindowBisectionMatchesLinearScan: random cadences with repeated
// timestamps, before and after the ring wraps, windows shorter and
// longer than what the ring holds, and an aggregate whose last
// checkpoint is long past (a dead command's).
func TestWindowBisectionMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var a aggState
		var now time.Duration
		steps := []time.Duration{0, time.Millisecond, time.Second, 3 * time.Second}
		for n := rng.Intn(3 * aggCheckpoints); n >= 0; n-- {
			now += steps[rng.Intn(len(steps))]
			a.instr += uint64(rng.Intn(1000))
			a.cycles += uint64(1 + rng.Intn(1000))
			a.checkpoint(now)
			for _, at := range []time.Duration{now, now + time.Hour} {
				for _, window := range []time.Duration{0, time.Millisecond, 5 * time.Second, time.Minute, 24 * time.Hour} {
					gi, gc, gt := a.window(at, window)
					wi, wc, wt := linearWindow(&a, at, window)
					if gi != wi || gc != wc || gt != wt {
						t.Fatalf("trial %d, %d checkpoints, now %v window %v: bisection (%d %d %v), linear scan (%d %d %v)",
							trial, a.ckLen, at, window, gi, gc, gt, wi, wc, wt)
					}
				}
			}
		}
	}
}

// refSnapshot is Snapshot as it stood before it was derived from View:
// its own map loops and its own sort of the live rings.
func refSnapshot(r *Recorder) *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := &Snapshot{
		TimeSeconds: r.lastTime.Seconds(),
		Refreshes:   r.refreshes,
		Columns:     append([]string(nil), r.columns...),
		Machine:     r.machine.aggregate(r.machine.epoch == r.epoch, r.lastTime, r.opt.Window),
		Users:       make(map[string]Aggregate, len(r.users)),
		Commands:    make(map[string]Aggregate, len(r.commands)),
	}
	for u, a := range r.users {
		snap.Users[u] = a.aggregate(a.epoch == r.epoch, r.lastTime, r.opt.Window)
	}
	for c, a := range r.commands {
		snap.Commands[c] = a.aggregate(a.epoch == r.epoch, r.lastTime, r.opt.Window)
	}
	var live []*ring
	for _, rg := range r.series {
		if rg.lastEpoch == r.epoch && rg.n > 0 {
			live = append(live, rg)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].id.PID != live[j].id.PID {
			return live[i].id.PID < live[j].id.PID
		}
		return live[i].id.TID < live[j].id.TID
	})
	for _, rg := range live {
		t := TaskSnap{
			PID: rg.id.PID, TID: rg.id.TID, User: rg.user, Command: rg.comm, State: rg.state,
			CPUPct: rg.last.cpu, IPC: rg.last.ipc(), Coverage: core.ElideCoverage(rg.coverage),
		}
		if r.ncols > 0 {
			t.Values = append([]float64(nil), rg.lastVals...)
		}
		snap.Tasks = append(snap.Tasks, t)
	}
	return snap
}

// TestViewKeepsItsOrderWhileItStands: a refill allocates nothing and
// keeps its generation while membership stands; every way membership or
// a label can change moves it, with or without an event in Observe.
func TestViewKeepsItsOrderWhileItStands(t *testing.T) {
	r := New(Options{Capacity: 4, MaxSeries: 4})
	r.SetColumns([]string{"ipc", "const"})
	row := func(pid int, comm string) rowSpec {
		return rowSpec{pid: pid, user: "u", comm: comm, cpuPct: 1, instr: 10, cycle: 10}
	}
	var v View
	now := time.Duration(0)
	for _, step := range []struct {
		name  string
		start time.Duration
		rows  []rowSpec
		moves bool
	}{
		{"first refresh", 0, []rowSpec{row(3, "c"), row(1, "a"), row(2, "b")}, true},
		{"unchanged", 0, []rowSpec{row(3, "c"), row(1, "a"), row(2, "b")}, false},
		{"exit", 0, []rowSpec{row(1, "a"), row(3, "c")}, true},
		{"unchanged after the exit", 0, []rowSpec{row(3, "c"), row(1, "a")}, false},
		{"return", 0, []rowSpec{row(1, "a"), row(2, "b"), row(3, "c")}, true},
		{"exit and admit", 0, []rowSpec{row(1, "a"), row(2, "b"), row(4, "d")}, true},
		{"exit and return", 0, []rowSpec{row(1, "a"), row(3, "c"), row(4, "d")}, true},
		{"exec drops a command", 0, []rowSpec{row(1, "a"), row(3, "b"), row(4, "d")}, true},
		{"exec between commands that keep a ring", 0, []rowSpec{row(1, "a"), row(3, "a"), row(4, "d")}, false},
		{"pid reuse", time.Minute, []rowSpec{row(1, "a"), row(3, "a"), row(4, "d")}, true},
		{"eviction", time.Minute, []rowSpec{row(1, "a"), row(3, "a"), row(5, "e")}, true},
		{"empty refresh", 0, nil, true},
		{"still empty", 0, nil, false},
	} {
		now += time.Second
		s := mkSample(now, step.rows)
		for i := range s.Rows {
			s.Rows[i].Info.StartTime = step.start
		}
		r.Observe(s)
		gen := v.Gen
		r.View(&v)
		if got, want := v.Snapshot(), refSnapshot(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the refilled view's snapshot is\n%+v, want\n%+v", step.name, got, want)
		}
		if moved := v.Gen != gen; moved != step.moves {
			t.Errorf("%s: generation moved = %v, want %v", step.name, moved, step.moves)
		}
	}

	r = New(Options{Capacity: 8})
	r.SetColumns([]string{"ipc", "const"})
	specs := make([]rowSpec, 200)
	for i := range specs {
		specs[i] = row(i+1, "cmd"+strconv.Itoa(i%50))
	}
	sample := mkSample(time.Second, specs)
	r.Observe(sample)
	r.View(&v)
	if allocs := testing.AllocsPerRun(20, func() { r.Observe(sample); r.View(&v) }); allocs != 0 {
		t.Fatalf("a steady-state refill allocates %.1f times, want 0", allocs)
	}
}

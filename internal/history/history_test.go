package history

import (
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

	series := r.History(1)
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
	if got := r.History(99); got != nil {
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
	s := r.History(7)[0]
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
	s := r.History(1)
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
	if got := r.History(1); got != nil {
		t.Fatalf("dead pid 1 must be evicted, got %+v", got)
	}
	for _, pid := range []int{2, 3, 4} {
		if got := r.History(pid); len(got) != 1 {
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

	series := r.History(5)
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

// TestObserveSteadyStateAllocations is the subsystem's core performance
// contract: once rings and aggregate entries exist, recording a refresh
// allocates nothing.
func TestObserveSteadyStateAllocations(t *testing.T) {
	r := New(Options{Capacity: 64})
	r.SetColumns([]string{"ipc", "const"})
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
	// Warm-up: create every ring and aggregate entry, and wrap the ring
	// at least once so the wrap path is the measured one.
	for i := 0; i < 70; i++ {
		r.Observe(sample)
	}
	allocs := testing.AllocsPerRun(100, func() { r.Observe(sample) })
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %.1f times per refresh, want 0", allocs)
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
	if s := r.History(1)[0]; s.User != "bob" || len(s.Points) != 2 {
		t.Errorf("recycled pid: user %q with %d points, want bob with 2", s.User, len(s.Points))
	}
	if s := r.History(2)[0]; s.User != "bob" || len(s.Points) != 3 {
		t.Errorf("relabelled task: user %q with %d points, want bob with 3", s.User, len(s.Points))
	}
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		if flip = !flip; flip {
			r.Observe(a)
		} else {
			r.Observe(b)
		}
	})
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

package history

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tiptop/internal/core"
)

// memKeeper is a Keeper in memory: every observed row as a point, on a
// clock that runs offset ahead of the samples' — as a store's does after
// a restart.
type memKeeper struct {
	offset time.Duration
	last   time.Duration
	kept   []keptPoint
}

type keptPoint struct {
	pid, tid int
	p        Point
}

func (k *memKeeper) Observe(s *core.Sample) {
	k.last = k.offset + s.Time
	for i := range s.Rows {
		row := &s.Rows[i]
		p := Point{TimeSeconds: float64(k.last.Milliseconds()) / 1000, CPUPct: row.CPUPct, Values: append([]float64(nil), row.Values...)}
		p.Instr, p.Cycles, p.Misses = row.Basics()
		k.kept = append(k.kept, keptPoint{row.Info.ID.PID, row.Info.ID.TID, p})
	}
}

func (k *memKeeper) LastTime() time.Duration { return k.last }

func (k *memKeeper) Replay(pid int, from, to time.Duration, fn func(tid int, p *Point)) error {
	for _, kp := range k.kept {
		ms := int64(math.Round(kp.p.TimeSeconds * 1000))
		if kp.pid == pid && ms >= from.Milliseconds() && ms <= to.Milliseconds() {
			p := kp.p
			fn(kp.tid, &p)
		}
	}
	return nil
}

// nopKeeper keeps nothing: what a teed recorder costs by itself.
type nopKeeper struct{ last time.Duration }

func (k *nopKeeper) Observe(s *core.Sample)                                            { k.last = s.Time }
func (k *nopKeeper) LastTime() time.Duration                                           { return k.last }
func (k *nopKeeper) Replay(int, time.Duration, time.Duration, func(int, *Point)) error { return nil }

// TestTeedRecorderKeepsNoPoints is the teed recorder's memory and
// allocation budget: over 200 refreshes of core.SplitRows tasks no ring
// packs a chunk, and Start and Join allocate nothing from each task's
// second refresh on — a ring holds its task's newest point, not its
// series — with the tee running beside the fold.
func TestTeedRecorderKeepsNoPoints(t *testing.T) {
	// Two procs: SplitRows rows tee on a helper goroutine (core.Split),
	// and the budget covers starting and joining it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !core.Split(core.SplitRows) {
		t.Fatalf("%d rows at GOMAXPROCS(2) do not split", core.SplitRows)
	}
	s := manyTaskSample(core.SplitRows, 4)
	r := New(Options{})
	r.SetColumns(make([]string, 4))
	r.Tee(&nopKeeper{})
	r.Observe(s.next())
	if allocs := testing.AllocsPerRun(198, func() { r.Start(s.next()); r.Join() }); allocs != 0 {
		t.Fatalf("a teed recorder's refresh of %d known tasks allocates %.1f times, want 0", core.SplitRows, allocs)
	}
	if r.refreshes != 200 {
		t.Fatalf("%d refreshes, want 200", r.refreshes)
	}
	for id, rg := range r.series {
		if rg.chunks != nil || rg.n != 0 {
			t.Fatalf("task %v holds %d chunks (%d points)", id, len(rg.chunks), rg.n)
		}
	}
}

// gateKeeper is a Keeper whose Observe holds until the test lets it go:
// a slow store append. It notes the samples in the order it kept them
// and the most appends it ever saw in flight at once.
type gateKeeper struct {
	nopKeeper
	gate     chan struct{}
	mu       sync.Mutex
	kept     []time.Duration
	inFlight int
	most     int
}

func (k *gateKeeper) Observe(s *core.Sample) {
	k.mu.Lock()
	k.kept = append(k.kept, s.Time)
	k.inFlight++
	k.most = max(k.most, k.inFlight)
	k.mu.Unlock()
	<-k.gate
	k.mu.Lock()
	k.inFlight--
	k.last = s.Time
	k.mu.Unlock()
}

func (k *gateKeeper) LastTime() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.last
}

func (k *gateKeeper) seen() []time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return slices.Clone(k.kept)
}

// TestStartWaitsForTheTeeInFlight: Start leaves a large sample's append
// running, and a second Start that comes before any Join waits for it —
// one append in flight per recorder, kept in refresh order — and Join
// notes the keeper's clock only once the append is done.
func TestStartWaitsForTheTeeInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	first := manyTaskSample(core.SplitRows, 2).next()
	second := manyTaskSample(core.SplitRows, 2)
	second.next()
	k := &gateKeeper{gate: make(chan struct{})}
	r := New(Options{Capacity: 8})
	r.SetColumns(make([]string, 2))
	r.Tee(k)
	defer close(k.gate) // lets a held append go when the test fails
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		r.Start(first)
		close(started)
		r.Start(second.next())
		r.Join()
		close(done)
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("Start waited for its own sample's append")
	}
	time.Sleep(50 * time.Millisecond)
	if got := k.seen(); len(got) != 1 {
		t.Fatalf("with the first append held, the keeper has begun %v: the second did not wait", got)
	}
	select {
	case <-done:
		t.Fatal("the second refresh was joined while the first append was held")
	default:
	}
	// Let the first append go; hold the second until the sampler has
	// had time to reach its Join.
	k.gate <- struct{}{}
	for len(k.seen()) < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	k.gate <- struct{}{}
	<-done
	if got, want := k.seen(), []time.Duration{time.Second, 2 * time.Second}; !slices.Equal(got, want) || k.most != 1 {
		t.Fatalf("kept %v with up to %d in flight, want %v one at a time", got, k.most, want)
	}
	if r.timed != 2 || r.times[2] != 2*time.Second {
		t.Fatalf("refresh %d noted at %v, want refresh 2 at the keeper's 2s", r.timed, r.times[r.timed])
	}
}

// TestTeedHistoryWindow: a teed recorder's History reads the keeper back
// on the keeper's clock, for the newest Capacity refreshes it observed:
// a pid reused inside them answers for its newest task only, a task last
// seen before them answers nil, and a column change starts the window
// afresh. Detached, the recorder packs points again from the next
// refresh on.
func TestTeedHistoryWindow(t *testing.T) {
	const capacity = 4
	r := New(Options{Capacity: capacity})
	r.SetColumns([]string{"ipc", "const"})
	k := &memKeeper{offset: time.Hour}
	r.Tee(k)
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	observe := func(now int, specs ...rowSpec) { r.Observe(mkSample(sec(now), specs)) }
	// pid 1 lives throughout; pid 2 exits after refresh 2; pid 3 is
	// reused at refresh 5 by another task.
	for i := 1; i <= 6; i++ {
		specs := []rowSpec{{pid: 1, user: "u", comm: "one", cpuPct: float64(i), instr: 2e9, cycle: 1e9}}
		if i <= 2 {
			specs = append(specs, rowSpec{pid: 2, user: "u", comm: "two", cpuPct: 5, instr: 1e9, cycle: 1e9})
		}
		specs = append(specs, rowSpec{pid: 3, user: "u", comm: "three", cpuPct: 7, instr: 3e9, cycle: 1e9})
		s := mkSample(sec(i), specs)
		if i >= 5 {
			s.Rows[len(s.Rows)-1].Info.StartTime = sec(5)
			s.Rows[len(s.Rows)-1].Info.Comm = "reused"
		}
		r.Observe(s)
	}
	times := func(ss []Series) []float64 {
		var out []float64
		for _, p := range ss[0].Points {
			out = append(out, p.TimeSeconds)
		}
		return out
	}
	h := mustHistory(t, r, 1)
	if len(h) != 1 || !h[0].Alive {
		t.Fatalf("pid 1: %+v", h)
	}
	// The newest four refreshes, 3…6 s on the samples' clock, an hour on.
	if got := times(h); len(got) != capacity || got[0] != 3603 || got[3] != 3606 {
		t.Fatalf("pid 1 points at %v, want the keeper's 3603…3606", got)
	}
	if p := h[0].Points[3]; p.CPUPct != 6 || p.IPC != 2 || p.Instr != 2e9 || len(p.Values) != 2 || p.Values[1] != 42 {
		t.Fatalf("pid 1 newest point %+v", p)
	}
	if h := mustHistory(t, r, 2); h != nil {
		t.Fatalf("pid 2, last seen before the window, answers %+v", h)
	}
	if h := mustHistory(t, r, 3); len(h) != 1 || h[0].Command != "reused" || len(h[0].Points) != 2 || h[0].Points[0].TimeSeconds != 3605 {
		t.Fatalf("reused pid 3 answers %+v, want the newest task's two points", h)
	}
	if got := r.PIDs(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("PIDs %v, want [1 3]", got)
	}

	// A column change restarts every ring: the window starts after it.
	r.SetColumns([]string{"ipc"})
	observe(7, rowSpec{pid: 1, user: "u", comm: "one", cpuPct: 7, instr: 2e9, cycle: 1e9})
	if h := mustHistory(t, r, 1); len(h) != 1 || len(h[0].Points) != 1 || len(h[0].Points[0].Values) != 1 {
		t.Fatalf("pid 1 after the column change: %+v", h)
	}

	// Detached: rings again, from the next refresh on.
	r.Tee(nil)
	observe(8, rowSpec{pid: 1, user: "u", comm: "one", cpuPct: 8, instr: 2e9, cycle: 1e9})
	if h := mustHistory(t, r, 1); len(h) != 1 || len(h[0].Points) != 1 || h[0].Points[0].TimeSeconds != 8 {
		t.Fatalf("pid 1 detached: %+v", h)
	}
}

// failingKeeper is a memKeeper whose Replay fails after passing on its
// first good points: a store scan that breaks mid-series.
type failingKeeper struct {
	memKeeper
	good int
}

var errScan = errors.New("segment unreadable")

func (k *failingKeeper) Replay(pid int, from, to time.Duration, fn func(tid int, p *Point)) error {
	n := 0
	err := k.memKeeper.Replay(pid, from, to, func(tid int, p *Point) {
		if n < k.good {
			fn(tid, p)
		}
		n++
	})
	if err == nil && n > k.good {
		err = errScan
	}
	return err
}

// TestTeedHistoryReportsReplayError: a keeper whose scan fails part way
// through a task's series makes History fail with that error, instead
// of answering the points read before it as the whole series.
func TestTeedHistoryReportsReplayError(t *testing.T) {
	r := New(Options{Capacity: 8})
	r.SetColumns([]string{"ipc", "const"})
	k := &failingKeeper{good: 2}
	r.Tee(k)
	for i := 1; i <= 5; i++ {
		r.Observe(mkSample(time.Duration(i)*time.Second, []rowSpec{{pid: 1, user: "u", comm: "one", cpuPct: 1, instr: 2e9, cycle: 1e9}}))
	}
	if h, err := r.History(1); !errors.Is(err, errScan) || h != nil {
		t.Fatalf("History over a failing scan = %d series, %v; want none and %v", len(h), err, errScan)
	}
	k.good = 5
	if h := mustHistory(t, r, 1); len(h) != 1 || len(h[0].Points) != 5 {
		t.Fatalf("History over a whole scan = %+v, want one series of 5 points", h)
	}
}

// mustHistory is r.History(pid), failing tb on its error.
func mustHistory(tb testing.TB, r *Recorder, pid int) []Series {
	tb.Helper()
	h, err := r.History(pid)
	if err != nil {
		tb.Fatalf("History(%d): %v", pid, err)
	}
	return h
}

package mux

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

// fakeInner is a scriptable capacity-limited backend: every attached
// event counts exactly at a fixed per-second rate while attached (and,
// when its counters are gates, enabled), the way a real PMU counts a
// group that fits its registers.
type fakeInner struct {
	nowNS    atomic.Int64
	capacity int
	gating   bool            // counters implement hpm.Gate
	zeroCost map[string]bool // event names costing no slot

	mu          sync.Mutex
	rates       map[string]float64 // counts per second per event name
	failAttach  map[string]int     // remaining attach (and enable) failures per event name
	openLimit   int                // attaches beyond this many live counters fail (0 = no limit)
	failDisable bool               // Disable fails (a gate that cannot be closed)
	attaches    int
	gates       int
	maxGroom    int // largest slot cost seen in one attach
	liveCtrs    int
	totalClosed int
}

// fakeGates makes newFakeInner hand out gating backends; TestGatingInner
// flips it to run the whole suite over both kinds of inner backend.
var fakeGates bool

func newFakeInner(capacity int) *fakeInner {
	return &fakeInner{
		capacity:   capacity,
		gating:     fakeGates,
		zeroCost:   map[string]bool{},
		rates:      map[string]float64{},
		failAttach: map[string]int{},
	}
}

func (f *fakeInner) advance(d time.Duration) { f.nowNS.Add(int64(d)) }

func (f *fakeInner) Name() string                   { return "fake" }
func (f *fakeInner) Probe() error                   { return nil }
func (f *fakeInner) Supported(e hpm.EventDesc) bool { return e.Valid() }
func (f *fakeInner) Capacity() int                  { return f.capacity }
func (f *fakeInner) SlotCost(e hpm.EventDesc) int {
	if f.zeroCost[e.Name] {
		return 0
	}
	return 1
}

// failingLocked consumes one scripted failure of any of the events.
func (f *fakeInner) failingLocked(events []hpm.EventDesc) error {
	for _, e := range events {
		if n := f.failAttach[e.Name]; n > 0 {
			f.failAttach[e.Name] = n - 1
			return fmt.Errorf("fake: %s: transient failure", e.Name)
		}
	}
	return nil
}

func (f *fakeInner) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attaches++
	cost := 0
	for _, e := range events {
		if !f.zeroCost[e.Name] {
			cost++
		}
	}
	if err := f.failingLocked(events); err != nil {
		return nil, err
	}
	if cost > f.maxGroom {
		f.maxGroom = cost
	}
	if f.capacity > 0 && cost > f.capacity {
		return nil, fmt.Errorf("fake: %d slots requested, have %d", cost, f.capacity)
	}
	if f.openLimit > 0 && f.liveCtrs >= f.openLimit {
		return nil, errors.New("fake: too many open files")
	}
	f.liveCtrs++
	c := &fakeCtr{f: f, task: task, events: events, t0: f.nowNS.Load()}
	if f.gating {
		return gatedFakeCtr{c}, nil
	}
	return c, nil
}

type fakeCtr struct {
	f      *fakeInner
	task   hpm.TaskID
	events []hpm.EventDesc
	t0     int64 // start of the current counting span
	banked int64 // ns counted in earlier spans (gated counters only)
	off    bool
	closed bool
}

func (c *fakeCtr) Task() hpm.TaskID { return c.task }

func (c *fakeCtr) elapsedNS() int64 {
	if c.off {
		return c.banked
	}
	return c.banked + c.f.nowNS.Load() - c.t0
}

func (c *fakeCtr) Read() ([]hpm.Count, error) {
	if c.closed {
		return nil, errors.New("fake: closed")
	}
	elapsedNS := c.elapsedNS()
	sec := float64(elapsedNS) / 1e9
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	out := make([]hpm.Count, len(c.events))
	for i, e := range c.events {
		out[i] = hpm.Count{
			Raw:     uint64(c.f.rates[e.Name] * sec),
			Enabled: uint64(elapsedNS),
			Running: uint64(elapsedNS),
		}
	}
	return out, nil
}

func (c *fakeCtr) Close() error {
	if !c.closed {
		c.closed = true
		c.f.mu.Lock()
		c.f.liveCtrs--
		c.f.totalClosed++
		c.f.mu.Unlock()
	}
	return nil
}

// gatedFakeCtr adds hpm.Gate. A scripted attach failure of one of its
// events also fails Enable: to the mux both mean "this group could not
// be made live".
type gatedFakeCtr struct{ *fakeCtr }

func (c gatedFakeCtr) Disable() error {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	c.f.gates++
	if c.f.failDisable {
		return errors.New("fake: disable failed")
	}
	c.banked, c.off = c.elapsedNS(), true
	return nil
}

func (c gatedFakeCtr) Enable() error {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	c.f.gates++
	if err := c.f.failingLocked(c.events); err != nil {
		return err
	}
	if c.off {
		c.t0, c.off = c.f.nowNS.Load(), false
	}
	return nil
}

func evts(names ...string) []hpm.EventDesc {
	out := make([]hpm.EventDesc, len(names))
	for i, n := range names {
		out[i] = hpm.EventDesc{Name: n, Type: hpm.PerfTypeRaw, Config: uint64(i + 1)}
	}
	return out
}

func task(pid int) hpm.TaskID { return hpm.TaskID{PID: pid, TID: pid} }

// refresh advances time and reads, like one engine tick.
func refresh(t *testing.T, f *fakeInner, c hpm.TaskCounter, d time.Duration) []hpm.Count {
	t.Helper()
	f.advance(d)
	counts, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestPassthroughWhenFits(t *testing.T) {
	f := newFakeInner(4)
	b := Wrap(f)
	events := evts("A", "B", "C", "D")
	for _, e := range events {
		f.rates[e.Name] = 1e6
	}
	c, err := b.Attach(task(1), events)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if f.attaches != 1 {
		t.Fatalf("attaches = %d, want 1 (no partitioning)", f.attaches)
	}
	counts := refresh(t, f, c, time.Second)
	for i, cnt := range counts {
		if !cnt.Exact() || cnt.Scaled() != 1e6 {
			t.Fatalf("event %d: %+v, want exact 1e6", i, cnt)
		}
	}
}

func TestUnlimitedCapacityPassesThrough(t *testing.T) {
	f := newFakeInner(0)
	b := Wrap(f)
	c, err := b.Attach(task(1), evts("A", "B", "C", "D", "E", "F", "G", "H"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if f.attaches != 1 {
		t.Fatalf("attaches = %d, want 1", f.attaches)
	}
}

func TestRotationCoversAllEventsAndExtrapolates(t *testing.T) {
	f := newFakeInner(4)
	b := Wrap(f)
	names := []string{"E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"}
	events := evts(names...)
	const rate = 3e6 // counts per second, identical for every event
	for _, n := range names {
		f.rates[n] = rate
	}
	c, err := b.Attach(task(1), events)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 12 events over 4 slots = 3 rotation groups; run many refreshes so
	// every group gets several live windows.
	const ticks = 30
	var counts []hpm.Count
	for i := 0; i < ticks; i++ {
		counts = refresh(t, f, c, time.Second)
	}
	if f.maxGroom > 4 {
		t.Fatalf("inner backend saw a %d-slot attach, capacity 4", f.maxGroom)
	}
	totalNS := uint64(ticks * uint64(time.Second))
	truth := uint64(rate) * ticks
	// Enabled is credited when a group is harvested, so an event's total
	// lags wall time by at most one rotation period (here 3 windows),
	// and the cumulative estimate is stale by the same bound.
	const groups = 3
	lagNS := uint64(groups * uint64(time.Second))
	staleness := float64(groups) / float64(ticks)
	for i, cnt := range counts {
		if cnt.Exact() {
			t.Fatalf("event %d claims exact despite rotation", i)
		}
		if cnt.Enabled > totalNS || cnt.Enabled < totalNS-lagNS {
			t.Fatalf("event %d Enabled = %d, want within one rotation of %d", i, cnt.Enabled, totalNS)
		}
		// Each of 3 groups is live 1/3 of the time.
		cov := float64(cnt.Running) / float64(cnt.Enabled)
		if cov < 0.25 || cov > 0.42 {
			t.Fatalf("event %d coverage = %.3f, want ~1/3", i, cov)
		}
		// Extrapolation converges on the true rate, up to the staleness
		// of the event's last harvest.
		got := float64(cnt.Scaled())
		if rel := (got - float64(truth)) / float64(truth); rel < -(0.05+staleness) || rel > 0.05 {
			t.Fatalf("event %d Scaled = %.0f, truth %d (rel err %.3f)", i, got, truth, rel)
		}
	}
}

func TestZeroCostEventsStayExact(t *testing.T) {
	f := newFakeInner(2)
	f.zeroCost["CYCLES"] = true
	f.zeroCost["SW"] = true
	b := Wrap(f)
	events := evts("CYCLES", "A", "B", "C", "D", "SW")
	for _, e := range events {
		f.rates[e.Name] = 1e6
	}
	c, err := b.Attach(task(1), events)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var counts []hpm.Count
	for i := 0; i < 12; i++ {
		counts = refresh(t, f, c, time.Second)
	}
	// The zero-cost events (indices 0 and 5) never rotate: exact, full
	// coverage, true count.
	for _, idx := range []int{0, 5} {
		cnt := counts[idx]
		if !cnt.Exact() || cnt.Scaled() != 12e6 {
			t.Fatalf("zero-cost event %d: %+v, want exact 12e6", idx, cnt)
		}
	}
	// The four costed events rotate over 2 slots: inexact.
	for _, idx := range []int{1, 2, 3, 4} {
		if counts[idx].Exact() {
			t.Fatalf("costed event %d claims exact", idx)
		}
	}
}

// A transiently failing event must not stall its rotation group: the
// groupmates decay to individual attaches and keep counting, and the
// failed event recovers once the fault clears (satellite: rotation x
// attach-retry interaction).
func TestTransientFailureDoesNotStallGroup(t *testing.T) {
	f := newFakeInner(2)
	b := Wrap(f)
	events := evts("A", "B", "C", "D")
	for _, e := range events {
		f.rates[e.Name] = 1e6
	}
	c, err := b.Attach(task(1), events)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Event C fails its next few attach attempts (e.g. a transient
	// EBUSY from another tool grabbing the counter).
	f.mu.Lock()
	f.failAttach["C"] = 3
	f.mu.Unlock()
	var counts []hpm.Count
	for i := 0; i < 20; i++ {
		counts = refresh(t, f, c, time.Second)
	}
	// D (C's groupmate) kept counting through C's failures...
	d := counts[3]
	if d.Running == 0 || d.Scaled() == 0 {
		t.Fatalf("groupmate D stalled: %+v", d)
	}
	// ...and C itself recovered after the fault cleared.
	cc := counts[2]
	if cc.Running == 0 || cc.Scaled() == 0 {
		t.Fatalf("C never recovered: %+v", cc)
	}
	// C's coverage is below D's: it missed turns.
	if float64(cc.Running) >= float64(d.Running) {
		t.Fatalf("C running %d not below D running %d", cc.Running, d.Running)
	}
}

func TestInitialAttachFailurePropagates(t *testing.T) {
	f := newFakeInner(2)
	b := Wrap(f)
	events := evts("A", "B", "C", "D")
	f.failAttach["A"] = 10
	f.failAttach["B"] = 10
	if _, err := b.Attach(task(1), events); err == nil {
		t.Fatal("attach with a fully failing first group must error")
	}
	if f.liveCtrs != 0 {
		t.Fatalf("leaked %d inner counters after failed attach", f.liveCtrs)
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	f := newFakeInner(2)
	f.zeroCost["Z"] = true
	b := Wrap(f)
	events := evts("Z", "A", "B", "C", "D")
	c, err := b.Attach(task(1), events)
	if err != nil {
		t.Fatal(err)
	}
	refresh(t, f, c, time.Second)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if f.liveCtrs != 0 {
		t.Fatalf("%d inner counters still live after Close", f.liveCtrs)
	}
	if _, err := c.Read(); err == nil {
		t.Fatal("read after close must error")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}

	// The same on the simulated PMU, where a leaked counter is a sink
	// still registered with the task: every rotation group is held open
	// while the task is monitored, and closing (task exit) releases them
	// all.
	k, err := sched.New(machine.Presets()["a7"], sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spin, err := workload.NewSpin(workload.Synthetic(workload.ManyTaskSpec(0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	job := k.Spawn("u", "job", spin, nil)
	sim := pmu.New(k)
	wide, err := core.ResolveScreenEvents(hpm.DefaultRegistry(), metrics.WideScreen())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Wrap(sim).Attach(job.ID(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Syscalls().Opens; got != int64(len(wide)) {
		t.Fatalf("%d descriptors open for %d events: groups are not held", got, len(wide))
	}
	for i := 0; i < 5; i++ {
		k.Advance(10 * time.Millisecond)
		if _, err := sc.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if !job.Monitored() {
		t.Fatal("task lost its sinks while monitored")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if job.Monitored() {
		t.Fatal("sinks leaked on the task after Close")
	}
	if sys := sim.Syscalls(); sys.Closes != sys.Opens {
		t.Fatalf("%d descriptors opened, %d closed", sys.Opens, sys.Closes)
	}
}

// The hpm contract lets a caller read distinct counters from distinct
// goroutines while attaching/closing others; rotation must keep the
// inner backend's serialization promise. Run with -race.
func TestConcurrentReadsAcrossCounters(t *testing.T) {
	f := newFakeInner(2)
	b := Wrap(f)
	names := []string{"A", "B", "C", "D", "E", "F"}
	for _, n := range names {
		f.rates[n] = 1e6
	}
	const tasks = 8
	ctrs := make([]hpm.TaskCounter, tasks)
	for i := range ctrs {
		c, err := b.Attach(task(i+1), evts(names...))
		if err != nil {
			t.Fatal(err)
		}
		ctrs[i] = c
	}
	for tick := 0; tick < 10; tick++ {
		f.advance(100 * time.Millisecond)
		var wg sync.WaitGroup
		for i, c := range ctrs {
			wg.Add(1)
			go func(i int, c hpm.TaskCounter) {
				defer wg.Done()
				if _, err := c.Read(); err != nil {
					t.Errorf("counter %d: %v", i, err)
				}
			}(i, c)
		}
		// Concurrently attach and close an unrelated passthrough
		// counter, as the engine does when tasks come and go.
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := b.Attach(task(100+tick), evts("A", "B"))
			if err == nil {
				c.Close()
			}
		}()
		wg.Wait()
	}
	for _, c := range ctrs {
		c.Close()
	}
	if f.liveCtrs != 0 {
		t.Fatalf("%d inner counters leaked", f.liveCtrs)
	}
}

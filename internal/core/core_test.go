package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// --- fakes ---

// fakeProc is a scriptable process source.
type fakeProc struct {
	infos []TaskInfo
	err   error
}

func (f *fakeProc) Snapshot() ([]TaskInfo, error) {
	if f.err != nil {
		return nil, f.err
	}
	return append([]TaskInfo(nil), f.infos...), nil
}

// fakeClock advances on demand.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration      { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now += d }

// fakeBackend produces counters that grow at fixed per-second rates.
type fakeBackend struct {
	clock *fakeClock
	// rates per event per task (counts per second)
	rates      map[int]map[string]float64
	probeErr   error
	attachErr  map[int]error
	attachLog  []int
	closeCount int
}

func (b *fakeBackend) Name() string               { return "fake" }
func (b *fakeBackend) Probe() error               { return b.probeErr }
func (b *fakeBackend) Capacity() int              { return 0 }
func (b *fakeBackend) SlotCost(hpm.EventDesc) int { return 1 }
func (b *fakeBackend) Supported(e hpm.EventDesc) bool {
	return e.Valid()
}
func (b *fakeBackend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	if err := b.attachErr[task.PID]; err != nil {
		return nil, err
	}
	b.attachLog = append(b.attachLog, task.PID)
	return &fakeCounter{b: b, task: task, events: events, attachedAt: b.clock.now}, nil
}

type fakeCounter struct {
	b          *fakeBackend
	task       hpm.TaskID
	events     []hpm.EventDesc
	attachedAt time.Duration
	closed     bool
}

func (c *fakeCounter) Task() hpm.TaskID { return c.task }
func (c *fakeCounter) Read() ([]hpm.Count, error) {
	if c.closed {
		return nil, errors.New("closed")
	}
	elapsed := (c.b.clock.now - c.attachedAt).Seconds()
	out := make([]hpm.Count, len(c.events))
	for i, e := range c.events {
		rate := c.b.rates[c.task.PID][e.Name]
		ns := uint64(c.b.clock.now - c.attachedAt)
		out[i] = hpm.Count{Raw: uint64(rate * elapsed), Enabled: ns, Running: ns}
	}
	return out, nil
}
func (c *fakeCounter) Close() error {
	c.closed = true
	c.b.closeCount++
	return nil
}

func fixture() (*fakeBackend, *fakeProc, *fakeClock) {
	clock := &fakeClock{}
	b := &fakeBackend{
		clock:     clock,
		rates:     map[int]map[string]float64{},
		attachErr: map[int]error{},
	}
	p := &fakeProc{}
	return b, p, clock
}

func addTask(b *fakeBackend, p *fakeProc, pid int, user string, ipc float64, freq float64) {
	p.infos = append(p.infos, TaskInfo{
		ID: hpm.TaskID{PID: pid, TID: pid}, User: user,
		Comm: fmt.Sprintf("proc%d", pid), State: "R",
	})
	b.rates[pid] = map[string]float64{
		hpm.EventCycles:       freq,
		hpm.EventInstructions: freq * ipc,
		hpm.EventCacheMisses:  1000,
	}
}

func newTestSession(t *testing.T, b hpm.Backend, p *fakeProc, c *fakeClock, opt Options) *Session {
	t.Helper()
	s, err := NewSession(b, p, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// --- tests ---

func TestNewSessionValidation(t *testing.T) {
	b, p, c := fixture()
	if _, err := NewSession(nil, p, c, Options{}); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := NewSession(b, nil, c, Options{}); err == nil {
		t.Fatal("nil proc accepted")
	}
	if _, err := NewSession(b, p, nil, Options{}); err == nil {
		t.Fatal("nil clock accepted")
	}
	b.probeErr = hpm.ErrUnavailable
	if _, err := NewSession(b, p, c, Options{}); !errors.Is(err, hpm.ErrUnavailable) {
		t.Fatalf("probe error not propagated: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	b, p, c := fixture()
	s := newTestSession(t, b, p, c, Options{})
	if s.Screen().Name != "default" {
		t.Fatalf("screen = %q", s.Screen().Name)
	}
	if len(s.Events()) == 0 {
		t.Fatal("no events derived from screen")
	}
}

func TestUpdateComputesIPCAndDeltas(t *testing.T) {
	b, p, c := fixture()
	const freq = 3.07e9
	addTask(b, p, 1, "alice", 1.97, freq)
	s := newTestSession(t, b, p, c, Options{Interval: 5 * time.Second})

	// First update attaches; counters read zero.
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 1 || !sam.Rows[0].Valid {
		t.Fatalf("rows = %+v", sam.Rows)
	}
	c.Advance(5 * time.Second)
	sam, err = s.Update()
	if err != nil {
		t.Fatal(err)
	}
	row := sam.Rows[0]
	if got := row.IPC(); got < 1.96 || got > 1.98 {
		t.Fatalf("IPC = %v, want ~1.97", got)
	}
	// The Mcycle column (values[0]) shows cycles since last refresh in
	// millions: 5 s * 3.07 GHz = 15350 Mcycles.
	if got := row.Values[0]; got < 15349 || got > 15351 {
		t.Fatalf("Mcycle = %v, want 15350", got)
	}
	if row.Count(hpm.EventCycles) == 0 {
		t.Fatal("raw event deltas must be exposed")
	}
}

func TestRowsSortedByCPUThenPID(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 2, "u", 1.0, 1e9)
	addTask(b, p, 1, "u", 1.5, 1e9)
	// Give pid 1 more CPU time so it sorts first.
	p.infos[1].CPUTime = 10 * time.Second
	p.infos[1].StartTime = 0
	p.infos[0].CPUTime = time.Second
	s := newTestSession(t, b, p, c, Options{})
	c.Advance(20 * time.Second)
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if sam.Rows[0].Info.ID.PID != 1 {
		t.Fatalf("expected pid 1 first (more CPU), got %d", sam.Rows[0].Info.ID.PID)
	}
}

func TestSortByColumnAndPID(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 0.5, 1e9)
	addTask(b, p, 2, "u", 2.5, 1e9)
	s := newTestSession(t, b, p, c, Options{SortBy: "ipc"})
	s.Update()
	c.Advance(time.Second)
	sam, _ := s.Update()
	if sam.Rows[0].Info.ID.PID != 2 {
		t.Fatal("sort by ipc column must put pid 2 first")
	}
	s2 := newTestSession(t, b, p, c, Options{SortBy: "pid"})
	s2.Update()
	c.Advance(time.Second)
	sam2, _ := s2.Update()
	if sam2.Rows[0].Info.ID.PID != 1 {
		t.Fatal("sort by pid")
	}
}

func TestFilterUser(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "alice", 1, 1e9)
	addTask(b, p, 2, "bob", 1, 1e9)
	s := newTestSession(t, b, p, c, Options{FilterUser: "alice"})
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 1 || sam.Rows[0].Info.User != "alice" {
		t.Fatalf("rows = %+v", sam.Rows)
	}
	// bob was never attached.
	for _, pid := range b.attachLog {
		if pid == 2 {
			t.Fatal("filtered task must not be attached")
		}
	}
}

func TestMaxRows(t *testing.T) {
	b, p, c := fixture()
	for pid := 1; pid <= 5; pid++ {
		addTask(b, p, pid, "u", 1, 1e9)
	}
	s := newTestSession(t, b, p, c, Options{MaxRows: 3})
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(sam.Rows))
	}
}

func TestTaskDisappearanceClosesCounter(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	addTask(b, p, 2, "u", 1, 1e9)
	s := newTestSession(t, b, p, c, Options{})
	s.Update()
	p.infos = p.infos[:1] // pid 2 exits
	c.Advance(time.Second)
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if sam.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", sam.Dropped)
	}
	if b.closeCount != 1 {
		t.Fatalf("closeCount = %d, want 1", b.closeCount)
	}
}

func TestAttachPermissionNotRetried(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "root", 1, 1e9)
	b.attachErr[1] = hpm.ErrPermission
	s := newTestSession(t, b, p, c, Options{})
	for i := 0; i < 3; i++ {
		sam, err := s.Update()
		if err != nil {
			t.Fatal(err)
		}
		if len(sam.Rows) != 1 || sam.Rows[0].Valid {
			t.Fatalf("iteration %d: row should be visible but invalid", i)
		}
		c.Advance(time.Second)
	}
	if len(b.attachLog) != 0 {
		t.Fatal("attach must not be retried after permission denial")
	}
}

func TestTransientAttachFailureIsRetried(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	b.attachErr[1] = errors.New("transient")
	s := newTestSession(t, b, p, c, Options{})
	s.Update()
	delete(b.attachErr, 1)
	c.Advance(time.Second)
	sam, _ := s.Update()
	if !sam.Rows[0].Valid {
		t.Fatal("attach should succeed after transient failure clears")
	}
}

func TestCPUPercent(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	s := newTestSession(t, b, p, c, Options{})
	s.Update()
	// Task consumes 0.5 s CPU over a 1 s interval: 50 %.
	p.infos[0].CPUTime = 500 * time.Millisecond
	c.Advance(time.Second)
	sam, _ := s.Update()
	if got := sam.Rows[0].CPUPct; got < 49 || got > 51 {
		t.Fatalf("%%CPU = %v, want 50", got)
	}
}

func TestRunLoopAndCallbackStop(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	s := newTestSession(t, b, p, c, Options{Interval: time.Second})
	calls := 0
	err := s.Run(5, func(sam *Sample) bool {
		calls++
		return calls < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("callback calls = %d, want 2 (stopped early)", calls)
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("clock = %v", c.Now())
	}
}

func TestUnsupportedScreenEventRejected(t *testing.T) {
	b, p, c := fixture()
	// A backend that rejects FP assists.
	restricted := &restrictedBackend{fakeBackend: b}
	_, err := NewSession(restricted, p, c, Options{Screen: metrics.FPScreen()})
	if !errors.Is(err, hpm.ErrUnsupportedEvent) {
		t.Fatalf("err = %v, want unsupported event", err)
	}
}

type restrictedBackend struct{ *fakeBackend }

func (r *restrictedBackend) Supported(e hpm.EventDesc) bool {
	return e.Valid() && e.Name != hpm.EventFPAssist
}

func TestProcSnapshotError(t *testing.T) {
	b, p, c := fixture()
	p.err = errors.New("proc unavailable")
	s := newTestSession(t, b, p, c, Options{})
	if _, err := s.Update(); err == nil {
		t.Fatal("snapshot error must propagate")
	}
}

func TestCloseIdempotentAndBlocksUpdate(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	s := newTestSession(t, b, p, c, Options{})
	s.Update()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b.closeCount != 1 {
		t.Fatalf("counters closed = %d", b.closeCount)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close")
	}
	if _, err := s.Update(); err == nil {
		t.Fatal("update after close must fail")
	}
}

// TestNewSessionRejectsUnknownIdentifier: an identifier that resolves
// to no event must fail session construction with an error naming the
// screen, the column and the identifier — not evaluate to zero per row.
func TestNewSessionRejectsUnknownIdentifier(t *testing.T) {
	b, p, c := fixture()
	screen := &metrics.Screen{
		Name: "custom",
		Columns: []*metrics.Column{
			{Name: "ok", Header: "OK", Width: 6, Format: "%6.2f",
				Expr: metrics.MustCompile("mega(CYCLES)")},
			{Name: "broken", Header: "BRK", Width: 6, Format: "%6.2f",
				Expr: metrics.MustCompile("ratio(CYCELS, INSTRUCTIONS)")},
		},
	}
	_, err := NewSession(b, p, c, Options{Screen: screen})
	if err == nil {
		t.Fatal("unknown identifier accepted")
	}
	for _, want := range []string{`"custom"`, `"broken"`, `"CYCELS"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestNewSessionResolvesThroughRegistry: user-registered events and
// spec-style identifiers (hw-cache names) resolve without touching the
// built-in defaults, and the session attaches them by descriptor.
func TestNewSessionResolvesThroughRegistry(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "alice", 1.5, 1e9)
	b.rates[1]["MY_RAW"] = 5e8
	reg := hpm.DefaultRegistry()
	if err := reg.Register(hpm.EventDesc{
		Name: "MY_RAW", Kind: hpm.KindRaw, Type: hpm.PerfTypeRaw, Config: 0xABCD,
	}); err != nil {
		t.Fatal(err)
	}
	screen := &metrics.Screen{
		Name: "custom",
		Columns: []*metrics.Column{
			{Name: "myr", Header: "MYR", Width: 6, Format: "%6.2f",
				Expr: metrics.MustCompile("ratio(MY_RAW, CYCLES)")},
		},
	}
	s := newTestSession(t, b, p, c, Options{Screen: screen, Registry: reg, Interval: time.Second})
	events := s.Events()
	if len(events) != 2 || events[0].Name != "MY_RAW" || events[0].Config != 0xABCD {
		t.Fatalf("session events = %v", events)
	}
	s.Update()
	c.Advance(time.Second)
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	row := sam.Rows[0]
	if got := row.Values[0]; got < 0.49 || got > 0.51 {
		t.Fatalf("MY_RAW/CYCLES = %v, want ~0.5", got)
	}
	if row.Count("MY_RAW") == 0 {
		t.Fatal("raw deltas must be keyed by event name")
	}
}

// TestCoverageElision pins the one serialization rule of Row.Coverage —
// wire rows, snapshot tasks and the OpenMetrics gauge all go through
// this pair: exact counting is absent, a fraction travels as itself, and
// anything out of range reads back as exact.
func TestCoverageElision(t *testing.T) {
	for _, tc := range []struct{ c, wire, back float64 }{
		{1, 0, 1},
		{1.5, 0, 1}, // over-counted: still exact
		{0.25, 0.25, 0.25},
		{0, 0, 1}, // the zero value of rows predating the field
	} {
		if got := ElideCoverage(tc.c); got != tc.wire {
			t.Errorf("ElideCoverage(%v) = %v, want %v", tc.c, got, tc.wire)
		}
		if got := ExactCoverage(tc.wire); got != tc.back {
			t.Errorf("ExactCoverage(%v) = %v, want %v", tc.wire, got, tc.back)
		}
	}
	for _, bad := range []float64{-0.5, 1.01, 7} {
		if got := ExactCoverage(bad); got != 1 {
			t.Errorf("ExactCoverage(%v) = %v, want 1 (out of range means exact)", bad, got)
		}
	}
}

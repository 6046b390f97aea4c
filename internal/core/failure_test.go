package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"tiptop/internal/hpm"
)

// readFailCounter fails reads after a configurable number of successes.
type readFailCounter struct {
	fakeCounter
	failAfter int
	reads     int
}

func (c *readFailCounter) Read() ([]hpm.Count, error) {
	c.reads++
	if c.reads > c.failAfter {
		return nil, errors.New("transient read failure")
	}
	return c.fakeCounter.Read()
}

// readFailBackend hands out counters that fail mid-flight.
type readFailBackend struct {
	*fakeBackend
	failAfter int
}

func (b *readFailBackend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	inner, err := b.fakeBackend.Attach(task, events)
	if err != nil {
		return nil, err
	}
	fc := inner.(*fakeCounter)
	return &readFailCounter{fakeCounter: *fc, failAfter: b.failAfter}, nil
}

func TestCounterReadFailureDegradesToCPUOnly(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1.5, 1e9)
	// The first Update performs two reads (attach baseline + first
	// sample); allow one more refresh before injecting failures.
	rb := &readFailBackend{fakeBackend: b, failAfter: 3}
	s, err := NewSession(rb, p, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First two reads succeed (attach + first sample)...
	if _, err := s.Update(); err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Second)
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if !sam.Rows[0].Valid {
		t.Fatal("row should be valid while reads work")
	}
	// ...then the counter starts failing: the engine must keep the row
	// visible with %CPU only, never error the whole refresh.
	c.Advance(time.Second)
	sam, err = s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 1 {
		t.Fatalf("rows = %d", len(sam.Rows))
	}
	if sam.Rows[0].Valid {
		t.Fatal("row must degrade to cpu-only on read failure")
	}
	if sam.Rows[0].CPUPct < 0 {
		t.Fatal("cpu percentage still computed")
	}
	// The task exits while its counter still fails: the final read
	// fails too, so there is no exit row, and the counter is closed.
	p.infos = nil
	c.Advance(time.Second)
	if sam, err = s.Update(); err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 0 || sam.Dropped != 1 || b.closeCount != 1 {
		t.Fatalf("%d rows, Dropped = %d, %d closes after the exit; want 0, 1, 1", len(sam.Rows), sam.Dropped, b.closeCount)
	}
}

// countingBackend counts every Attach call, including failed ones.
type countingBackend struct {
	*fakeBackend
	attachCalls int
}

func (b *countingBackend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	b.attachCalls++
	return b.fakeBackend.Attach(task, events)
}

func TestFailedMapReapedWithTask(t *testing.T) {
	// A task whose attach failed permanently must not leave an entry in
	// the failure map after it disappears — under churn the map would
	// grow without bound, and a reused TaskID would inherit the old
	// owner's blacklisting.
	b, p, c := fixture()
	addTask(b, p, 1, "root", 1, 1e9)
	b.attachErr[1] = hpm.ErrPermission
	s := newTestSession(t, b, p, c, Options{})
	if _, err := s.Update(); err != nil {
		t.Fatal(err)
	}
	if len(s.failed) != 1 {
		t.Fatalf("failed entries = %d, want 1", len(s.failed))
	}
	p.infos = nil // the task exits
	c.Advance(time.Second)
	if _, err := s.Update(); err != nil {
		t.Fatal(err)
	}
	if len(s.failed) != 0 {
		t.Fatalf("failed entries after reap = %d, want 0", len(s.failed))
	}
	// The pid is reused by a task we may monitor: it must attach.
	delete(b.attachErr, 1)
	addTask(b, p, 1, "u", 1, 1e9)
	c.Advance(time.Second)
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 1 || !sam.Rows[0].Valid {
		t.Fatal("reused TaskID must not inherit the old owner's blacklisting")
	}
}

func TestTransientAttachBackoff(t *testing.T) {
	// A transiently failing attach is retried on the next refresh, then
	// with exponential backoff capped at attachBackoffMax — bounded
	// rate, but never abandoned.
	clock := &fakeClock{}
	fb := &fakeBackend{clock: clock, rates: map[int]map[string]float64{}, attachErr: map[int]error{}}
	b := &countingBackend{fakeBackend: fb}
	p := &fakeProc{}
	addTask(fb, p, 1, "u", 1, 1e9)
	fb.attachErr[1] = errors.New("transient")
	s := newTestSession(t, b, p, clock, Options{})

	if _, err := s.Update(); err != nil { // attempt 1 at t=0
		t.Fatal(err)
	}
	if b.attachCalls != 1 {
		t.Fatalf("attach calls = %d, want 1", b.attachCalls)
	}
	clock.Advance(time.Second) // first failure retries on the next refresh
	s.Update()
	if b.attachCalls != 2 {
		t.Fatalf("attach calls = %d, want 2 (retry on next refresh)", b.attachCalls)
	}
	clock.Advance(500 * time.Millisecond) // t=1.5s, retryAt=2s: inside backoff
	s.Update()
	if b.attachCalls != 2 {
		t.Fatalf("attach calls = %d, want 2 (backoff must suppress retry)", b.attachCalls)
	}
	clock.Advance(500 * time.Millisecond) // t=2s: backoff elapsed
	s.Update()
	if b.attachCalls != 3 {
		t.Fatalf("attach calls = %d, want 3 (retry after backoff)", b.attachCalls)
	}
	// Keep failing: the retry rate settles at one attempt per
	// attachBackoffMax, never giving up on the task.
	callsBefore := b.attachCalls
	for i := 0; i < 5; i++ {
		clock.Advance(attachBackoffMax + time.Second)
		s.Update()
	}
	if b.attachCalls != callsBefore+5 {
		t.Fatalf("attach calls = %d, want %d (one per capped backoff window)",
			b.attachCalls, callsBefore+5)
	}
	clock.Advance(attachBackoffMax / 2)
	s.Update()
	if b.attachCalls != callsBefore+5 {
		t.Fatalf("attach calls = %d, want %d (inside the capped window)",
			b.attachCalls, callsBefore+5)
	}
	// The restriction lifts: the long-lived task is monitored again
	// without having to exit and reappear.
	delete(fb.attachErr, 1)
	clock.Advance(attachBackoffMax)
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Rows) != 1 || !sam.Rows[0].Valid {
		t.Fatal("task must attach once the transient restriction clears")
	}
	if len(s.failed) != 0 {
		t.Fatalf("failed entries = %d, want 0 after recovery", len(s.failed))
	}
}

func TestBackoffStateClearedOnSuccess(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	b.attachErr[1] = errors.New("transient")
	s := newTestSession(t, b, p, c, Options{})
	s.Update()
	delete(b.attachErr, 1)
	c.Advance(time.Second)
	s.Update()
	if len(s.failed) != 0 {
		t.Fatalf("failed entries = %d, want 0 after successful attach", len(s.failed))
	}
}

func TestManyTasksChurn(t *testing.T) {
	// Tasks appearing and disappearing across refreshes must never leak
	// counters: every attach is balanced by a close when the task goes.
	b, p, c := fixture()
	s, err := NewSession(b, p, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		p.infos = nil
		for i := 0; i < 5; i++ {
			pid := round*10 + i + 1
			addTask(b, p, pid, "u", 1, 1e9)
		}
		if _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
		c.Advance(time.Second)
	}
	p.infos = nil
	if _, err := s.Update(); err != nil {
		t.Fatal(err)
	}
	if b.closeCount != len(b.attachLog) {
		t.Fatalf("leaked counters: %d attached, %d closed", len(b.attachLog), b.closeCount)
	}
}

// TestReusedTaskIDExitsOldTask: a TaskID listed again with another
// StartTime is a new process on a recycled PID. The old task leaves
// through the exit path — one final read into one exit row, its counter
// closed once — and the new one is attached fresh, without a row of its
// own in that refresh, so no sample carries one TaskID twice.
func TestReusedTaskIDExitsOldTask(t *testing.T) {
	b, p, c := fixture()
	addTask(b, p, 1, "u", 1, 1e9)
	addTask(b, p, 2, "u", 1, 1e9)
	s := newTestSession(t, b, p, c, Options{})
	if _, err := s.Update(); err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Second)
	p.infos[0].StartTime, p.infos[0].Comm = c.now, "reborn"
	sam, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.attachLog, []int{1, 2, 1}) || b.closeCount != 1 {
		t.Fatalf("attach log %v, %d closes: want pid 1 attached again and its first counter closed", b.attachLog, b.closeCount)
	}
	var pid1 []Row
	for _, row := range sam.Rows {
		if row.Info.ID.PID == 1 {
			pid1 = append(pid1, row)
		}
	}
	if len(pid1) != 1 || sam.Dropped != 1 {
		t.Fatalf("%d rows for pid 1 and Dropped = %d, want one exit row and 1", len(pid1), sam.Dropped)
	}
	if r := pid1[0]; r.Info.State != StateExited || r.Info.Comm != "proc1" || !r.Valid || r.Count(hpm.EventCycles) != 1e9 {
		t.Fatalf("exit row = %+v, want the old task's final second", r.Info)
	}
	c.Advance(time.Second)
	if sam, err = s.Update(); err != nil {
		t.Fatal(err)
	}
	if r := sam.Rows[0]; r.Info.Comm != "reborn" || r.Info.State != "R" || r.Count(hpm.EventCycles) != 1e9 || b.closeCount != 1 {
		t.Fatalf("next refresh: row %+v, %d closes; want the new task's first second", r.Info, b.closeCount)
	}
}

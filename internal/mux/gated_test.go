package mux

import (
	"testing"
	"time"

	"tiptop/internal/hpm"
)

// TestGatingInner runs the package's suite over an inner backend whose
// counters are gates, so every property asserted for close/re-attach
// rotation is asserted, by the same test bodies, for gated rotation
// too (under -race that includes TestConcurrentReadsAcrossCounters with
// no backend-wide lock on the read path).
func TestGatingInner(t *testing.T) {
	fakeGates = true
	defer func() { fakeGates = false }()
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"PassthroughWhenFits", TestPassthroughWhenFits},
		{"UnlimitedCapacityPassesThrough", TestUnlimitedCapacityPassesThrough},
		{"RotationCoversAllEventsAndExtrapolates", TestRotationCoversAllEventsAndExtrapolates},
		{"ZeroCostEventsStayExact", TestZeroCostEventsStayExact},
		{"TransientFailureDoesNotStallGroup", TestTransientFailureDoesNotStallGroup},
		{"InitialAttachFailurePropagates", TestInitialAttachFailurePropagates},
		{"CloseReleasesEverything", TestCloseReleasesEverything},
		{"ConcurrentReadsAcrossCounters", TestConcurrentReadsAcrossCounters},
		{"IdleGroupOpenFailureFallsBack", TestIdleGroupOpenFailureFallsBack},
	} {
		t.Run(tc.name, tc.fn)
	}
}

func sixEvents(f *fakeInner) []hpm.EventDesc {
	events := evts("Z", "A", "B", "C", "D", "E", "F")
	f.zeroCost["Z"] = true
	for _, e := range events {
		f.rates[e.Name] = 1e6
	}
	return events
}

// TestGatedRotationBudget: over a gating inner backend every rotation
// group is opened once at Attach, and a Read is two inner reads' worth
// of work plus one disable and one enable — no inner Attach, no inner
// Close, and the backend mutex is never taken.
func TestGatedRotationBudget(t *testing.T) {
	f := newFakeInner(2)
	f.gating = true
	b := Wrap(f)
	c, err := b.Attach(task(1), sixEvents(f))
	if err != nil {
		t.Fatal(err)
	}
	// The free counter and three groups of two; the two idle groups were
	// disabled once each.
	if f.attaches != 4 || f.liveCtrs != 4 || f.gates != 2 {
		t.Fatalf("after attach: %d attaches, %d live counters, %d gate calls; want 4, 4, 2", f.attaches, f.liveCtrs, f.gates)
	}
	// Hold the backend mutex across the reads: a gated Read that wanted
	// it would never return.
	b.mu.Lock()
	done := make(chan []hpm.Count, 1)
	go func() {
		var counts []hpm.Count
		for i := 0; i < 30; i++ {
			counts = refresh(t, f, c, time.Second)
		}
		done <- counts
	}()
	var counts []hpm.Count
	select {
	case counts = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a gated Read blocked on the backend mutex")
	}
	b.mu.Unlock()
	if f.attaches != 4 || f.totalClosed != 0 {
		t.Fatalf("30 reads made %d inner attaches and %d closes, want none", f.attaches-4, f.totalClosed)
	}
	if f.gates != 2+2*30 {
		t.Fatalf("30 reads made %d gate calls, want 2 each", f.gates-2)
	}
	if z := counts[0]; !z.Exact() || z.Scaled() != 30e6 {
		t.Fatalf("free event: %+v, want exact 30e6", z)
	}
	for i, cnt := range counts[1:] {
		// Each group was enabled for 10 of the 30 windows, and only then;
		// its Enabled is credited up to its own last harvest (reads 28,
		// 29 and 30 for groups 0, 1 and 2).
		harvested := time.Duration(28+i/2) * time.Second
		if cnt.Running != uint64(10*time.Second) || cnt.Enabled != uint64(harvested) || cnt.Raw != 10e6 {
			t.Fatalf("rotated event %d: %+v, want 10e6 counts in 10 s of %v", i+1, cnt, harvested)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if f.liveCtrs != 0 {
		t.Fatalf("%d inner counters left open by Close", f.liveCtrs)
	}
}

// TestIdleGroupOpenFailureFallsBack is the descriptor-exhaustion model:
// when the idle groups cannot all be opened (or gated) the attach still
// succeeds, the half-built set is torn down whole, and that task rotates
// by close/re-attach on what group 0 alone needs — other tasks are
// unaffected.
func TestIdleGroupOpenFailureFallsBack(t *testing.T) {
	for _, fault := range []string{"open limit", "disable fails"} {
		f := newFakeInner(2)
		b := Wrap(f)
		events := sixEvents(f)
		switch fault {
		case "open limit":
			f.openLimit = 3 // free counter, group 0, group 1 — group 2 hits the limit
		case "disable fails":
			f.failDisable = true
		}
		c, err := b.Attach(task(1), events)
		if err != nil {
			t.Fatalf("%s: attach must degrade, not fail: %v", fault, err)
		}
		if f.liveCtrs != 2 {
			t.Fatalf("%s: %d inner counters open after attach, want the free counter and group 0 only", fault, f.liveCtrs)
		}
		f.mu.Lock()
		f.openLimit, f.failDisable = 0, false
		f.mu.Unlock()
		var counts []hpm.Count
		for i := 0; i < 12; i++ {
			counts = refresh(t, f, c, time.Second)
			if f.liveCtrs != 2 {
				t.Fatalf("%s: %d inner counters open in fallback rotation, want 2", fault, f.liveCtrs)
			}
		}
		for i, cnt := range counts[1:] {
			if cnt.Running != uint64(4*time.Second) || cnt.Scaled() == 0 {
				t.Fatalf("%s: rotated event %d: %+v, want 4 of 12 windows counted", fault, i+1, cnt)
			}
		}
		// A task attached once the fault has cleared holds its groups.
		before := f.liveCtrs
		c2, err := b.Attach(task(2), events)
		if err != nil {
			t.Fatal(err)
		}
		if f.gating && f.liveCtrs != before+4 {
			t.Fatalf("%s: second task holds %d counters, want 4", fault, f.liveCtrs-before)
		}
		c.Close()
		c2.Close()
		if f.liveCtrs != 0 {
			t.Fatalf("%s: %d inner counters leaked", fault, f.liveCtrs)
		}
	}
}

// TestGateFailureDemotesTask: a gate call failing mid-run releases the
// task's held groups and continues by close/re-attach; nothing leaks
// and nothing already counted is lost.
func TestGateFailureDemotesTask(t *testing.T) {
	f := newFakeInner(2)
	f.gating = true
	b := Wrap(f)
	c, err := b.Attach(task(1), sixEvents(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		refresh(t, f, c, time.Second)
	}
	f.mu.Lock()
	f.failDisable = true
	f.mu.Unlock()
	counts := refresh(t, f, c, time.Second) // harvests group 0, then fails to gate
	if f.liveCtrs != 2 {
		t.Fatalf("%d inner counters open after demotion, want the free counter and one live group", f.liveCtrs)
	}
	if a := counts[1]; a.Raw != 2e6 || a.Running != uint64(2*time.Second) {
		t.Fatalf("group 0 lost its second turn to the demotion: %+v", a)
	}
	attaches := f.attaches
	for i := 0; i < 6; i++ {
		counts = refresh(t, f, c, time.Second)
	}
	if f.attaches != attaches+6 || f.liveCtrs != 2 {
		t.Fatalf("demoted task: %d attaches over 6 reads with %d counters open, want 6 and 2", f.attaches-attaches, f.liveCtrs)
	}
	for i, cnt := range counts[1:] {
		if cnt.Running < uint64(3*time.Second) {
			t.Fatalf("rotated event %d stopped counting after demotion: %+v", i+1, cnt)
		}
	}
	c.Close()
	if f.liveCtrs != 0 {
		t.Fatalf("%d inner counters leaked", f.liveCtrs)
	}
}

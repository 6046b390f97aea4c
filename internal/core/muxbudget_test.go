package core_test

// The counter-starved path's budget: a multiplexed screen on the
// simulated Cortex-A7 (4 counters, the 12-event "wide" screen, so three
// rotation groups per task) must cost a steady-state refresh a fixed
// number of syscall equivalents per task and no per-task allocation —
// all groups open, rotation by gating (internal/mux).

import (
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
)

const muxTasks = 320

// muxedSession is a 320-task Cortex-A7 node sampled with the wide
// screen through the mux, attach pass done.
func muxedSession(tb testing.TB) (*core.Session, *pmu.Backend) {
	tb.Helper()
	k := manyTaskKernelOn(tb, "a7", muxTasks)
	sim := pmu.New(k)
	s, err := core.NewSession(mux.Wrap(sim), proc.NewSource(k), proc.NewClock(k), core.Options{
		Screen:   metrics.BuiltinScreens()["wide"],
		Interval: time.Second,
		FreqHz:   k.Machine().FreqHz,
		NumCPUs:  k.Machine().NumLogical(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Update(); err != nil { // attach every task
		tb.Fatal(err)
	}
	return s, sim
}

// TestMuxedRefreshSyscallBudget: in steady state a refresh opens and
// closes nothing and costs each task exactly two reads (live group,
// free counter) and two gate calls (disable, enable); every descriptor
// opened is closed when the session ends.
func TestMuxedRefreshSyscallBudget(t *testing.T) {
	s, sim := muxedSession(t)
	const events = 12 // the wide screen's: 11 hardware in groups of 4, 4, 3 and PAGE_FAULTS; one descriptor each
	attached := sim.Syscalls()
	if attached.Opens != muxTasks*events {
		t.Fatalf("%d opens for %d tasks: the idle groups are not held open", attached.Opens, muxTasks)
	}
	const refreshes = 7 // not a multiple of the 3 groups
	var rows int
	for i := 0; i < refreshes; i++ {
		s.AdvanceClock()
		sample, err := s.Update()
		if err != nil {
			t.Fatal(err)
		}
		rows = len(sample.Rows)
		for _, r := range sample.Rows {
			if !r.Valid || r.Coverage <= 0 || r.Coverage >= 1 {
				t.Fatalf("refresh %d pid %d: valid=%v coverage=%v, want a rotating row", i, r.Info.ID.PID, r.Valid, r.Coverage)
			}
		}
	}
	if rows != muxTasks {
		t.Fatalf("rows = %d, want %d", rows, muxTasks)
	}
	now := sim.Syscalls()
	if now.Opens != attached.Opens || now.Closes != attached.Closes {
		t.Errorf("%d opens and %d closes over %d steady refreshes, want none",
			now.Opens-attached.Opens, now.Closes-attached.Closes, refreshes)
	}
	want := int64(2 * muxTasks * refreshes)
	if got := now.Reads - attached.Reads; got != want {
		t.Errorf("%d reads, want %d (2 per task per refresh)", got, want)
	}
	if got := now.Gates - attached.Gates; got != want {
		t.Errorf("%d gate calls, want %d (2 per task per refresh)", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if end := sim.Syscalls(); end.Closes != end.Opens {
		t.Errorf("%d descriptors opened, %d closed", end.Opens, end.Closes)
	}
}

// TestMuxedUpdateAllocsFlat is TestUpdateAllocsFlat for the multiplexed
// path: rotation reuses per-group buffers, so a refresh allocates per
// refresh, not per task.
func TestMuxedUpdateAllocsFlat(t *testing.T) {
	s, _ := muxedSession(t)
	defer s.Close()
	least := leastUpdateAllocs(t, s)
	if perTask := float64(least) / muxTasks; perTask > 0.1 {
		t.Errorf("%d allocations per muxed refresh of %d tasks (%.2f per task), want <= 0.1 per task",
			least, muxTasks, perTask)
	}
}

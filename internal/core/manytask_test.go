package core_test

// Many-task stress coverage for the sampling engine, driven through the
// real simulator stack (virtual PMU + simulated /proc), the same wiring
// the tool uses.

import (
	"math"
	"runtime"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

// manyTaskKernel builds a data-center node running the n-job stress
// fleet of workload.ManyTaskSpec (the load behind ScenarioManyTasks).
// Everything is seeded, so two kernels built with the same arguments
// evolve identically.
func manyTaskKernel(tb testing.TB, n int) *sched.Kernel {
	tb.Helper()
	return manyTaskKernelOn(tb, "e5640", n)
}

// manyTaskKernelOn is manyTaskKernel on another machine preset.
func manyTaskKernelOn(tb testing.TB, preset string, n int) *sched.Kernel {
	tb.Helper()
	m, ok := machine.Presets()[preset]
	if !ok {
		tb.Fatalf("%s preset missing", preset)
	}
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		spec := workload.ManyTaskSpec(i)
		spin, err := workload.NewSpin(workload.Synthetic(spec), int64(i+1))
		if err != nil {
			tb.Fatal(err)
		}
		k.Spawn(workload.ManyTaskUser(i), spec.Name, spin, nil)
	}
	return k
}

func simManySession(tb testing.TB, k *sched.Kernel) *core.Session {
	tb.Helper()
	s, err := core.NewSession(pmu.New(k), proc.NewSource(k), proc.NewClock(k), core.Options{
		Screen:   metrics.DefaultScreen(),
		Interval: time.Second,
		FreqHz:   k.Machine().FreqHz,
		NumCPUs:  k.Machine().NumLogical(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestManyTaskChurn kills half the tasks mid-flight and checks the
// engine reaps exactly the dead ones, closing each of their descriptors
// once, in the refresh that misses them.
func TestManyTaskChurn(t *testing.T) {
	const tasks = 1200
	k := manyTaskKernel(t, tasks)
	s := simManySession(t, k)
	defer s.Close()
	sim := s.Backend().(*pmu.Backend)
	if _, err := s.Update(); err != nil {
		t.Fatal(err)
	}
	killed := 0
	for _, task := range k.Tasks() {
		if task.ID().PID%2 == 0 {
			if err := k.Kill(task.ID().PID); err == nil {
				killed++
			}
		}
	}
	if killed == 0 {
		t.Fatal("no task killed")
	}
	s.AdvanceClock()
	sample, err := s.Update()
	if err != nil {
		t.Fatal(err)
	}
	if sample.Dropped != killed {
		t.Fatalf("Dropped = %d, want %d", sample.Dropped, killed)
	}
	if len(sample.Rows) != tasks-killed {
		t.Fatalf("rows = %d, want %d", len(sample.Rows), tasks-killed)
	}
	// One descriptor per event per task: the dead tasks' were closed
	// inside that refresh, and a later refresh closes nothing again.
	wantCloses := int64(len(s.Events()) * killed)
	if got := sim.Syscalls().Closes; got != wantCloses {
		t.Fatalf("%d closes after the reap, want %d (%d events x %d dead tasks)", got, wantCloses, len(s.Events()), killed)
	}
	s.AdvanceClock()
	if again, err := s.Update(); err != nil || again.Dropped != 0 {
		t.Fatalf("refresh after the reap: Dropped = %d, err = %v", again.Dropped, err)
	}
	if got := sim.Syscalls().Closes; got != wantCloses {
		t.Fatalf("%d closes one refresh later, want still %d", got, wantCloses)
	}
	if states, failed := s.Tracked(); states != tasks-killed || failed != 0 {
		t.Fatalf("engine tracks %d tasks and %d attach failures, want %d and 0", states, failed, tasks-killed)
	}
}

// TestUpdateAllocsFlat is the engine's allocation budget: a steady-state
// refresh allocates per refresh (the sample, its rows and the two arrays
// their values and counts are carved from), never per task.
func TestUpdateAllocsFlat(t *testing.T) {
	steady := func(tasks int) uint64 {
		s := simManySession(t, manyTaskKernel(t, tasks))
		defer s.Close()
		if _, err := s.Update(); err != nil { // attach all counters
			t.Fatal(err)
		}
		return leastUpdateAllocs(t, s)
	}
	if small, large := steady(1000), steady(4000); small != large || large > 8 {
		t.Errorf("%d allocations per refresh of 1000 tasks, %d of 4000; want equal and <= 8", small, large)
	}
}

// leastUpdateAllocs returns the fewest heap allocations one of three
// steady-state refreshes made. The simulator allocates as it advances;
// Update alone is counted.
func leastUpdateAllocs(t *testing.T, s *core.Session) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		s.AdvanceClock()
		runtime.ReadMemStats(&before)
		if _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// benchUpdate measures steady-state refreshes (after the attach warm-up).
func benchUpdate(b *testing.B, tasks int) {
	k := manyTaskKernel(b, tasks)
	s := simManySession(b, k)
	defer s.Close()
	if _, err := s.Update(); err != nil { // attach all counters
		b.Fatal(err)
	}
	s.AdvanceClock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Update(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdate1000(b *testing.B) { benchUpdate(b, 1000) }
func BenchmarkUpdate4000(b *testing.B) { benchUpdate(b, 4000) }

package core_test

// Many-task stress coverage for the sharded sampling engine, driven
// through the real simulator stack (virtual PMU + simulated /proc), the
// same wiring the tool uses. Run with -race: the refresh fans sampling
// out across shard goroutines, so these tests double as the engine's
// data-race regression suite.

import (
	"math"
	"reflect"
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

func simManySession(tb testing.TB, k *sched.Kernel, parallelism int) *core.Session {
	tb.Helper()
	s, err := core.NewSession(pmu.New(k), proc.NewSource(k), proc.NewClock(k), core.Options{
		Screen:      metrics.DefaultScreen(),
		Interval:    time.Second,
		FreqHz:      k.Machine().FreqHz,
		NumCPUs:     k.Machine().NumLogical(),
		Parallelism: parallelism,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestShardedMatchesSerialOrdering runs the serial engine and a heavily
// sharded engine over two identically seeded simulations and requires
// byte-identical samples — same rows, same order, same values — at every
// refresh.
func TestShardedMatchesSerialOrdering(t *testing.T) {
	const tasks = 1200
	kSerial := manyTaskKernel(t, tasks)
	kSharded := manyTaskKernel(t, tasks)
	serial := simManySession(t, kSerial, 1)
	defer serial.Close()
	sharded := simManySession(t, kSharded, 8)
	defer sharded.Close()
	if sharded.Parallelism() != 8 || serial.Parallelism() != 1 {
		t.Fatalf("parallelism = %d/%d", serial.Parallelism(), sharded.Parallelism())
	}

	for refresh := 0; refresh < 3; refresh++ {
		a, err := serial.Update()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Update()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != tasks || len(b.Rows) != tasks {
			t.Fatalf("refresh %d: rows = %d/%d, want %d", refresh, len(a.Rows), len(b.Rows), tasks)
		}
		if !reflect.DeepEqual(a, b) {
			for i := range a.Rows {
				if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
					t.Fatalf("refresh %d row %d differs:\nserial:  %+v\nsharded: %+v",
						refresh, i, a.Rows[i], b.Rows[i])
				}
			}
			t.Fatalf("refresh %d: samples differ outside rows", refresh)
		}
		serial.AdvanceClock()
		sharded.AdvanceClock()
	}
}

// TestShardedManyTaskChurn kills half the tasks mid-flight and checks
// the sharded engine reaps exactly the dead ones.
func TestShardedManyTaskChurn(t *testing.T) {
	const tasks = 600
	k := manyTaskKernel(t, tasks)
	s := simManySession(t, k, 0) // default: one shard per CPU
	defer s.Close()
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
}

// TestUpdateAllocsFlat is the engine's allocation budget: a steady-state
// refresh allocates per refresh (the rows and the arrays their values
// and counts are carved from, a goroutine per shard), never per task.
func TestUpdateAllocsFlat(t *testing.T) {
	steady := func(tasks, parallelism int) uint64 {
		s := simManySession(t, manyTaskKernel(t, tasks), parallelism)
		defer s.Close()
		if _, err := s.Update(); err != nil { // attach all counters
			t.Fatal(err)
		}
		return leastUpdateAllocs(t, s)
	}
	// Serially the count is exact; starting shard goroutines costs the
	// runtime an allocation more or less from run to run.
	if small, large := steady(1000, 1), steady(4000, 1); small != large || large > 64 {
		t.Errorf("serial: %d allocations per refresh of 1000 tasks, %d of 4000; want equal and <= 64", small, large)
	}
	if small, large := steady(1000, 4), steady(4000, 4); small > 64 || large > 64 {
		t.Errorf("4 shards: %d allocations per refresh of 1000 tasks, %d of 4000; want <= 64", small, large)
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

// benchUpdate measures steady-state refreshes (after the attach warm-up)
// at the given shard count.
func benchUpdate(b *testing.B, tasks, parallelism int) {
	k := manyTaskKernel(b, tasks)
	s := simManySession(b, k, parallelism)
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

func BenchmarkUpdate1000Serial(b *testing.B)  { benchUpdate(b, 1000, 1) }
func BenchmarkUpdate1000Sharded(b *testing.B) { benchUpdate(b, 1000, 0) }
func BenchmarkUpdate4000Serial(b *testing.B)  { benchUpdate(b, 4000, 1) }
func BenchmarkUpdate4000Sharded(b *testing.B) { benchUpdate(b, 4000, 0) }

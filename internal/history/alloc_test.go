package history_test

// End-to-end allocation accounting against the real engine: recording
// must add zero allocations per refresh once the rings have wrapped (a
// growing ring allocates a buffer per 64 points). Measured by running
// two identically seeded simulated sessions — one with a subscribed
// Recorder, one without — through testing.AllocsPerRun and comparing.

import (
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/history"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

func manyTaskSession(tb testing.TB, tasks int) *core.Session {
	tb.Helper()
	m, ok := machine.Presets()["e5640"]
	if !ok {
		tb.Fatal("e5640 preset missing")
	}
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		spec := workload.ManyTaskSpec(i)
		spin, err := workload.NewSpin(workload.Synthetic(spec), int64(i+1))
		if err != nil {
			tb.Fatal(err)
		}
		k.Spawn(workload.ManyTaskUser(i), spec.Name, spin, nil)
	}
	s, err := core.NewSession(pmu.New(k), proc.NewSource(k), proc.NewClock(k), core.Options{
		Screen:   metrics.DefaultScreen(),
		Interval: 50 * time.Millisecond, // simulated time is what a refresh of the simulator costs
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func sessionAllocs(tb testing.TB, tasks int, record bool) float64 {
	tb.Helper()
	s := manyTaskSession(tb, tasks)
	defer s.Close()
	if record {
		rec := history.New(history.Options{Capacity: 32})
		cols := make([]string, len(s.Screen().Columns))
		for i, c := range s.Screen().Columns {
			cols[i] = c.Name
		}
		rec.SetColumns(cols)
		s.Subscribe(rec)
	}
	// Warm up: attach every counter, create every ring and aggregate, and
	// run until every ring has dropped a chunk and written a full one into
	// each of its two buffers, so the measured refreshes are pure steady
	// state; they cross a chunk boundary.
	for i := 0; i < 240; i++ {
		s.AdvanceClock()
		if _, err := s.Update(); err != nil {
			tb.Fatal(err)
		}
	}
	return testing.AllocsPerRun(30, func() {
		s.AdvanceClock()
		if _, err := s.Update(); err != nil {
			tb.Fatal(err)
		}
	})
}

func TestRecordingAddsNoSteadyStateAllocations(t *testing.T) {
	const tasks = 150
	baseline := sessionAllocs(t, tasks, false)
	recorded := sessionAllocs(t, tasks, true)
	// The two sessions are seeded identically; any difference is the
	// recorder's doing. Allow less than one allocation per refresh of
	// measurement noise.
	if recorded-baseline >= 1 {
		t.Fatalf("recording adds %.1f allocations per refresh (baseline %.1f, recorded %.1f), want 0",
			recorded-baseline, baseline, recorded)
	}
}

// BenchmarkUpdateRecorded / BenchmarkUpdateBaseline make the same
// comparison visible in `go test -bench . -benchmem ./internal/history/`.
func benchUpdate(b *testing.B, record bool) {
	s := manyTaskSession(b, 400)
	defer s.Close()
	if record {
		rec := history.New(history.Options{Capacity: 64})
		s.Subscribe(rec)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Update(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Update(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateBaseline(b *testing.B) { benchUpdate(b, false) }
func BenchmarkUpdateRecorded(b *testing.B) { benchUpdate(b, true) }

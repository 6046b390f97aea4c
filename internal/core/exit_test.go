package core_test

// A task that exits keeps what it counted: the refresh that no longer
// finds it in the process table reads its counters once more and emits
// the final partial interval as the task's exit row.

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

// TestExitConservesCounts is CounterPoint's refutable assumption for the
// engine: per event, a task's row deltas sum to what the task counted,
// also when it is killed partway through an interval. Every other task
// is killed at a seeded random instant of a random interval from
// killFrom on; the rest outlive the run. Unmultiplexed (the E5640's
// default screen) the sums are exact. Rotated (the 12-event wide screen
// on the 4-counter A7, three groups) they are extrapolations, and must
// land within the band of the counter-validation oracle — 5% relative
// or 64 counts absolute — which needs the oracle's ~150 refreshes:
// whatever a group counts between its last harvest and the end of the
// run is never extrapolated, exit or not.
func TestExitConservesCounts(t *testing.T) {
	for _, tc := range []struct {
		preset              string
		screen              *metrics.Screen
		tasks               int
		interval            time.Duration
		refreshes, killFrom int
		rel                 float64
		abs                 uint64
	}{
		{"e5640", metrics.DefaultScreen(), 8, time.Second, 6, 3, 0, 0},
		{"a7", metrics.WideScreen(), 6, 100 * time.Millisecond, 150, 100, 0.05, 64},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			k := manyTaskKernelOn(t, tc.preset, tc.tasks)
			s, err := core.NewSession(mux.Wrap(pmu.New(k)), proc.NewSource(k), proc.NewClock(k), core.Options{
				Screen:   tc.screen,
				Interval: tc.interval,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewPCG(1, uint64(tc.tasks)))
			kills := map[int]time.Duration{} // pid -> kill time
			var byTime []int                 // the killed pids in kill order
			for i, task := range k.Tasks() {
				if i%2 == 0 {
					continue
				}
				at := time.Duration(tc.killFrom+rng.IntN(tc.refreshes-tc.killFrom)) * tc.interval
				kills[task.ID().PID] = at + time.Duration(rng.Int64N(int64(tc.interval)))
				byTime = append(byTime, task.ID().PID)
			}
			slices.SortFunc(byTime, func(a, b int) int { return cmp.Compare(kills[a], kills[b]) })
			sums := map[int]map[string]uint64{}
			add := func(sample *core.Sample) {
				for _, row := range sample.Rows {
					m := sums[row.Info.ID.PID]
					if m == nil {
						m = map[string]uint64{}
						sums[row.Info.ID.PID] = m
					}
					for name, d := range row.Events {
						m[name] += d
					}
				}
			}
			update := func() {
				sample, err := s.Update()
				if err != nil {
					t.Fatal(err)
				}
				add(sample)
			}
			update() // attach before anything ran
			for r := 1; r <= tc.refreshes; r++ {
				end := time.Duration(r) * tc.interval
				for _, pid := range byTime {
					if at := kills[pid]; at > k.Now() && at < end {
						k.Advance(at - k.Now())
						if err := k.Kill(pid); err != nil {
							t.Fatal(err)
						}
					}
				}
				k.Advance(end - k.Now())
				update()
			}
			for _, task := range k.Tasks() {
				pid := task.ID().PID
				for _, e := range s.Events() {
					want, got := task.Totals().Count(e.Name), sums[pid][e.Name]
					diff := max(want, got) - min(want, got)
					if diff > tc.abs && float64(diff) > tc.rel*float64(want) {
						t.Errorf("pid %d (state %v): Σ%s deltas = %d, task counted %d (%+.1f%%)",
							pid, task.State(), e.Name, got, want, 100*(float64(got)/float64(want)-1))
					}
				}
			}
		})
	}
}

// TestExitRowOrderPerThread: two threads of one process that exit in one
// refresh get one exit row each, ordered by TID — the same in every fresh
// session, whatever order the engine's task map hands them out in.
func TestExitRowOrderPerThread(t *testing.T) {
	var first []hpm.TaskID
	for run := 0; run < 20; run++ {
		k, err := sched.New(machine.XeonE5640x2(), sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spin := func(i int) workload.Runner {
			r, err := workload.NewSpin(workload.Synthetic(workload.ManyTaskSpec(i)), int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		leader := k.Spawn("alice", "app", spin(0), nil)
		var tids []int
		for i := 1; i <= 4; i++ {
			th, err := k.SpawnThread(leader, spin(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			tids = append(tids, th.ID().TID)
		}
		src := proc.NewSource(k)
		src.PerThread = true
		s, err := core.NewSession(pmu.New(k), src, proc.NewClock(k), core.Options{Interval: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
		s.AdvanceClock()
		for _, tid := range tids[1:3] {
			if err := k.Kill(tid); err != nil {
				t.Fatal(err)
			}
		}
		s.AdvanceClock()
		sample, err := s.Update()
		if err != nil {
			t.Fatal(err)
		}
		var order, exits []hpm.TaskID
		for _, row := range sample.Rows {
			order = append(order, row.Info.ID)
			if row.Info.State == core.StateExited {
				exits = append(exits, row.Info.ID)
			}
		}
		s.Close()
		if want := []hpm.TaskID{{PID: leader.ID().PID, TID: tids[1]}, {PID: leader.ID().PID, TID: tids[2]}}; !slices.Equal(exits, want) {
			t.Fatalf("run %d: exit rows %v, want %v", run, exits, want)
		}
		if first == nil {
			first = order
		} else if !slices.Equal(order, first) {
			t.Fatalf("run %d: rows in order %v, first run %v", run, order, first)
		}
	}
	if len(first) != 5 {
		t.Fatalf("%d rows, want 3 live threads and 2 exit rows", len(first))
	}
}

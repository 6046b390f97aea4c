package tiptop_test

import (
	"testing"
	"time"

	"tiptop"
)

// TestExitCountsConserveThroughRecorderAndStore composes the daemon's
// first pieces — a simulated monitor, the recorder subscribed to it and
// a store teed from the recorder — over jobs of which two are killed
// 0.7 s into an interval, and asserts per event that one total reaches
// every layer: what the tasks counted, the deltas of the rows the
// observers saw, the recorder's machine aggregate (what
// tiptop_machine_instructions_total exports) and the raw-tier records a
// query reads back.
func TestExitCountsConserveThroughRecorderAndStore(t *testing.T) {
	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for i, ipc := range []float64{0.6, 1.1, 1.7, 2.4} {
		pid, err := sc.StartSynthetic("user", "job"+string(rune('a'+i)), ipc)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	st, err := tiptop.OpenStore(t.TempDir(), tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
	rec.Tee(st)
	mon.Subscribe(rec)

	events := []string{"INSTRUCTIONS", "CYCLES", "CACHE_MISSES"}
	rows := map[string]uint64{}
	exits := 0
	for i := 0; i <= 6; i++ {
		if i == 4 {
			sc.Advance(700 * time.Millisecond)
			for _, pid := range pids[:2] {
				if err := sc.Kill(pid); err != nil {
					t.Fatal(err)
				}
			}
			sc.Advance(300 * time.Millisecond)
		} else if i > 0 {
			sc.Advance(time.Second)
		}
		sample, err := mon.SampleNow()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range sample.Rows {
			for _, e := range events {
				rows[e] += row.Events[e]
			}
			if row.State == tiptop.StateExited {
				exits++
			}
		}
	}
	if exits != 2 {
		t.Fatalf("%d exit rows, want 2", exits)
	}
	machine := rec.Snapshot().Machine
	for i, e := range events {
		var tasks uint64
		for _, pid := range pids {
			n, err := sc.TaskTotal(pid, e)
			if err != nil {
				t.Fatal(err)
			}
			tasks += n
		}
		res, err := st.Querier().QueryExpr(e, tiptop.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var stored float64
		for _, s := range res.Series {
			if s.Total {
				continue // the roll-up of the task series
			}
			for _, p := range s.Points {
				stored += p.Value
			}
		}
		recorded := [...]uint64{machine.Instructions, machine.Cycles, machine.CacheMisses}[i]
		if rows[e] != tasks || recorded != tasks || stored != float64(tasks) {
			t.Errorf("%s: tasks counted %d, rows carry %d, the recorder totals %d, the store reads back %.0f",
				e, tasks, rows[e], recorded, stored)
		}
	}
}

package tiptop_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiptop"
)

// TestExitCountsConserveThroughRecorderAndStore drives a Daemon — the
// simulated monitor, the recorder subscribed to it and the store teed
// from the recorder — over jobs of which two are killed 0.7 s into an
// interval, and asserts per event that one total reaches every layer:
// what the tasks counted, the deltas of the rows Refresh returned, the
// recorder's machine aggregate, the tiptop_machine_*_total counter
// /metrics exports from it, and the raw-tier records a query reads back.
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
	d, err := tiptop.NewDaemon(tiptop.Config{Interval: time.Second, StoreDir: t.TempDir()}, tiptop.DaemonOptions{Sim: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	events := []string{"INSTRUCTIONS", "CYCLES", "CACHE_MISSES"}
	rows := map[string]uint64{}
	exits := 0
	for i := 0; i <= 6; i++ { // the attach pass, then six refreshes
		if i == 4 {
			sc.Advance(700 * time.Millisecond)
			for _, pid := range pids[:2] {
				if err := sc.Kill(pid); err != nil {
					t.Fatal(err)
				}
			}
		}
		sample, err := d.Refresh()
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
	machine := d.Recorder().Snapshot().Machine
	exported := scrapeMachineTotals(t, d.Handler())
	st := d.Stores()[""]
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
		metric := "tiptop_machine_" + strings.ToLower(e) + "_total"
		if rows[e] != tasks || recorded != tasks || exported[metric] != float64(tasks) || stored != float64(tasks) {
			t.Errorf("%s: tasks counted %d, rows carry %d, the recorder totals %d, %s exports %.0f, the store reads back %.0f",
				e, tasks, rows[e], recorded, metric, exported[metric], stored)
		}
	}
}

// scrapeMachineTotals GETs /metrics from h and returns the value of
// every unlabelled tiptop_machine_*_total sample.
func scrapeMachineTotals(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", w.Code, w.Body)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "tiptop_machine_") || !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("/metrics: %q: %v", sc.Text(), err)
		}
		out[name] = v
	}
	return out
}

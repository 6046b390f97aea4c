package tiptop_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tiptop"
)

// TestTeedHistoryMatchesRings: over a churning simulated node, a
// store-less recorder — whose history, once rings of its own, is now
// its own in-memory store — answers History and PIDs exactly as a twin
// teed into a store on disk, subscribed to the same monitor: the newest
// Capacity refreshes, on the store clock. A task last seen before the
// window has no history on either side.
func TestTeedHistoryMatchesRings(t *testing.T) {
	const capacity, refreshes = 16, 40
	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetSeed(5)
	rng := rand.New(rand.NewSource(5))
	var live []int
	start := func() {
		pid, err := sc.StartSynthetic("user", fmt.Sprint("job", len(live)%4), 0.4+2*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, pid)
	}
	for range 6 {
		start()
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
	teed := tiptop.NewRecorder(tiptop.RecorderOptions{Capacity: capacity})
	teed.Tee(st)
	mon.Subscribe(teed)
	bare := tiptop.NewRecorder(tiptop.RecorderOptions{Capacity: capacity})
	mon.Subscribe(bare)

	seen := map[int]bool{}
	for i := 0; i < refreshes; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			start()
		case r < 6 && len(live) > 2:
			k := rng.Intn(len(live))
			sc.Advance(time.Duration(rng.Intn(900)) * time.Millisecond)
			if err := sc.Kill(live[k]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, k, k+1)
		}
		sample := mon.Sample
		if i == 0 {
			sample = mon.SampleNow
		}
		s, err := sample()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range s.Rows {
			seen[row.PID] = true
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	var pids []int
	outOfWindow := 0
	for _, pid := range slices.Sorted(maps.Keys(seen)) {
		want := mustHistory(t, teed, pid)
		if got := mustHistory(t, bare, pid); !reflect.DeepEqual(got, want) {
			t.Fatalf("pid %d: the store-less recorder's history\n%+v\ndiffers from its disk-teed twin's\n%+v", pid, got, want)
		}
		if want == nil {
			outOfWindow++
			continue
		}
		pids = append(pids, pid)
	}
	if outOfWindow == 0 || len(pids) < 6 {
		t.Fatalf("%d pids in the window, %d before it: the churn exercises neither side", len(pids), outOfWindow)
	}
	t.Logf("%d pids in the window, %d before it", len(pids), outOfWindow)
	if got, want := bare.PIDs(), teed.PIDs(); !slices.Equal(got, want) || !slices.Equal(want, pids) {
		t.Fatalf("store-less PIDs %v, disk-teed %v, want the pids in the window %v", got, want, pids)
	}
}

// mustHistory is rec.History(pid), failing tb on its error.
func mustHistory(tb testing.TB, rec *tiptop.Recorder, pid int) []tiptop.HistorySeries {
	tb.Helper()
	h, err := rec.History(pid)
	if err != nil {
		tb.Fatalf("History(%d): %v", pid, err)
	}
	return h
}

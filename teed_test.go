package tiptop_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tiptop"
)

// TestTeedHistoryMatchesRings: over a churning simulated node, a
// recorder teed into a store — whose History reads the store's raw tier
// back — answers every pid exactly as a store-less twin subscribed to
// the same monitor answers from its rings, cut to the teed recorder's
// window: the newest Capacity refreshes. A task last seen before the
// window has no history, and PIDs lists what History answers for.
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
	twin := tiptop.NewRecorder(tiptop.RecorderOptions{Capacity: capacity})
	mon.Subscribe(twin)

	var times []float64
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
		times = append(times, s.Time.Seconds())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	since := times[refreshes-capacity]
	var pids []int
	outOfWindow := 0
	for _, pid := range twin.PIDs() {
		var want []tiptop.HistorySeries
		for _, s := range twin.History(pid) {
			i := slices.IndexFunc(s.Points, func(p tiptop.HistoryPoint) bool { return p.TimeSeconds >= since })
			if i < 0 {
				continue
			}
			s.Points = s.Points[i:]
			want = append(want, s)
		}
		got := teed.History(pid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pid %d: the teed recorder's history\n%+v\ndiffers from its twin's rings\n%+v", pid, got, want)
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
	if got := teed.PIDs(); !slices.Equal(got, pids) {
		t.Fatalf("teed PIDs %v, want the pids in the window %v", got, pids)
	}
}

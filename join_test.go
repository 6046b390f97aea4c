package tiptop

import (
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"tiptop/internal/core"
)

// lateKeeper is a store whose appends begin late, as a slow disk's do:
// a refresh's append is still running when its sampler would hand the
// sample on, unless the sampler joins it first.
type lateKeeper struct{ keeper }

func (k lateKeeper) Observe(s *core.Sample) {
	time.Sleep(20 * time.Millisecond)
	k.keeper.Observe(s)
}

// teeLate tees rec into st through a lateKeeper, then closes st: the
// next refresh's append fails, late.
func teeLate(t *testing.T, rec *Recorder, st *Store) {
	t.Helper()
	rec.st = st
	rec.h.Tee(lateKeeper{keeper{st.s}})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("the store failed before the refresh: %v", err)
	}
}

// TestSampleReturnsAfterTheAppend: a sample of core.SplitRows rows
// appends to a teed store beside the recorder's fold and the public
// rows, and the sampler joins that append before it returns. With the
// store closed, its Err is the failed append as soon as Monitor.SampleNow
// returns (red without sampleNow's join), and as soon as a
// RemoteMonitor's SampleNow does (red if follower.step only Starts its
// recorders instead of observing them).
func TestSampleReturnsAfterTheAppend(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !core.Split(core.SplitRows) {
		t.Fatalf("%d rows at GOMAXPROCS(2) do not split", core.SplitRows)
	}
	t.Run("Monitor", func(t *testing.T) {
		_, mon := nodeFixture(t, MachineE5640, "", core.SplitRows)
		st, err := OpenStore(t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(RecorderOptions{})
		mon.Subscribe(rec)
		teeLate(t, rec, st)
		s, err := mon.SampleNow()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Rows) < core.SplitRows {
			t.Fatalf("%d rows, want at least %d", len(s.Rows), core.SplitRows)
		}
		if st.Err() == nil {
			t.Fatal("SampleNow returned before its store append failed")
		}
	})
	t.Run("RemoteMonitor", func(t *testing.T) {
		d, err := NewDaemon(Config{Interval: time.Second}, DaemonOptions{Sim: nodeScenario(t, MachineE5640, core.SplitRows)})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(d.Handler())
		defer ts.Close()
		rm, err := NewRemoteMonitor(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer rm.Close()
		st, err := OpenStore(t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(RecorderOptions{})
		rm.Subscribe(rec)
		teeLate(t, rec, st)
		s, err := rm.SampleNow()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Rows) < core.SplitRows {
			t.Fatalf("%d rows, want at least %d", len(s.Rows), core.SplitRows)
		}
		if st.Err() == nil {
			t.Fatal("RemoteMonitor.SampleNow returned before its store append failed")
		}
	})
}

// TestClippedRefreshAppendsEveryTask: under Config.MaxRows the display
// is clipped, but the store append a recorder runs beside the public
// rows (core.Split) reads the whole sample: the engine clips a copy,
// never the sample its observers hold. Run it under -race.
func TestClippedRefreshAppendsEveryTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	mon, err := NewSimMonitor(nodeScenario(t, MachineE5640, core.SplitRows), Config{Interval: time.Second, MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := NewRecorder(RecorderOptions{})
	rec.Tee(st)
	mon.Subscribe(rec)
	const refreshes = 3
	for i := 0; i < refreshes; i++ {
		s, err := mon.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Rows) != 3 {
			t.Fatalf("refresh %d: %d display rows, want MaxRows 3", i, len(s.Rows))
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(StoreQuery{PID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < core.SplitRows {
		t.Fatalf("the store holds %d tasks, want every one of at least %d", len(res.Series), core.SplitRows)
	}
	for _, ser := range res.Series {
		if len(ser.Points) != refreshes {
			t.Fatalf("pid %d: %d stored points, want one per refresh (%d)", ser.PID, len(ser.Points), refreshes)
		}
	}
}

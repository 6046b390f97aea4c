package tiptop_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/core"
)

// TestSplitRefreshMatchesSerial: a refresh of core.SplitRows tasks or
// more at GOMAXPROCS(2) runs its consumers side by side (core.Split) —
// the store append the recorder tees beside its fold and the public
// rows, which are built in two halves — and at GOMAXPROCS(1) one after
// the other. Over the same seeded node, with tasks leaving and
// arriving, both leave the same store bytes, scrape bodies, snapshots
// and public rows: on bench/'s live_fleet node (2000 tasks, the E5640's
// default screen) and its live_mux node (320 tasks, the Cortex-A7's
// 12-event wide screen).
func TestSplitRefreshMatchesSerial(t *testing.T) {
	for _, n := range []splitNode{
		{tiptop.MachineE5640, "", 2000},
		{tiptop.MachineCortexA7, "wide", 320},
	} {
		t.Run(fmt.Sprintf("%s/%d", n.machine, n.tasks), func(t *testing.T) {
			serial, split := splitRun(t, n, 1), splitRun(t, n, 2)
			for _, aspect := range []struct {
				name     string
				one, two [][sha256.Size]byte
			}{
				{"public rows", serial.rows, split.rows},
				{"WriteOpenMetrics", serial.metrics, split.metrics},
				{"Snapshot", serial.snaps, split.snaps},
			} {
				for i := range aspect.one {
					if aspect.one[i] != aspect.two[i] {
						t.Errorf("refresh %d: %s differ between one proc and two", i, aspect.name)
						break
					}
				}
			}
			names := slices.Sorted(maps.Keys(serial.files))
			if len(names) == 0 || !slices.Equal(names, slices.Sorted(maps.Keys(split.files))) {
				t.Fatalf("store files %v with one proc, %v with two", names, slices.Sorted(maps.Keys(split.files)))
			}
			for _, name := range names {
				if !bytes.Equal(serial.files[name], split.files[name]) {
					t.Errorf("%s differs between one proc (%d bytes) and two (%d)", name, len(serial.files[name]), len(split.files[name]))
				}
			}
		})
	}
}

// splitNode is the node a splitRun samples: a machine, a screen ("" is
// the default) and its number of tasks.
type splitNode struct {
	machine tiptop.MachineName
	screen  string
	tasks   int
}

// splitTrace is what one splitRun leaves: per refresh, digests of the
// sample's public rows, the recorder's scrape body and its snapshot;
// and the store directory's files once closed.
type splitTrace struct {
	rows, metrics, snaps [][sha256.Size]byte
	files                map[string][]byte
}

// splitRun samples a seeded node eight times at GOMAXPROCS procs
// through a recorder teed into a store; ten tasks exit and ten arrive
// before the fifth refresh.
func splitRun(t *testing.T, n splitNode, procs int) splitTrace {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	tasks := n.tasks
	if got := core.Split(tasks); got != (procs >= 2) {
		t.Fatalf("core.Split(%d) = %v at GOMAXPROCS(%d)", tasks, got, procs)
	}
	sc, err := tiptop.NewScenario(n.machine)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetSeed(11)
	rng := rand.New(rand.NewSource(11))
	var pids []int
	start := func(i int) {
		job := tiptop.SyntheticJob{Name: fmt.Sprintf("job%05d", i), IPC: 0.25 + 2.95*rng.Float64(), MemRefsPKI: float64(rng.Intn(8) * 40)}
		pid, err := sc.StartSyntheticJob(fmt.Sprint("user", rng.Intn(5)), job)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	for i := range tasks {
		start(i)
	}
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: time.Second, Screen: n.screen})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	dir := t.TempDir()
	st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
	mon.Subscribe(rec)
	rec.Tee(st)

	var tr splitTrace
	for r := range 8 {
		if r == 4 {
			for k := range 10 {
				i := rng.Intn(len(pids))
				if err := sc.Kill(pids[i]); err != nil {
					t.Fatal(err)
				}
				pids = slices.Delete(pids, i, i+1)
				start(tasks + k)
			}
		}
		sample := mon.SampleNow
		if r > 0 {
			sample = mon.Sample
		}
		s, err := sample()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		tr.rows = append(tr.rows, sha256.Sum256(fmt.Appendf(nil, "%+v", s.Rows)))
		var body bytes.Buffer
		if err := rec.WriteOpenMetrics(&body); err != nil {
			t.Fatal(err)
		}
		tr.metrics = append(tr.metrics, sha256.Sum256(body.Bytes()))
		snap, err := json.Marshal(rec.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		tr.snaps = append(tr.snaps, sha256.Sum256(snap))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tr.files = map[string][]byte{}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		tr.files[filepath.Base(seg)] = b
	}
	return tr
}

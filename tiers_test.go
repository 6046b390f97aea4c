package tiptop_test

// The store's downsample tiers as views of the counts, end to end
// through a Daemon: a tier row sums each event's counts over the
// refreshes it folded, its derived columns are their expressions over
// those sums, and an engine's attach read — the row of the refresh that
// opened a task's counters — is kept in the raw tier and folded into no
// tier.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/metrics"
	"tiptop/internal/store"
)

// TestFirstBucketSkipsAttachRow: with constant-IPC jobs refreshed every
// second, a task's first 10 s point reads the same ipc column as its
// IPC, and its mcycle column and CPU% are the means of the raw rows
// after its attach read — for a task watched from the start and for one
// that starts 5 s before a bucket boundary. Folding the attach read
// (zero counts, zero values) diluted them by one refresh in n + 1:
// −9.09% and −16.7%.
func TestFirstBucketSkipsAttachRow(t *testing.T) {
	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		t.Fatal(err)
	}
	early, err := sc.StartSynthetic("user", "early", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tiptop.NewDaemon(tiptop.Config{Interval: time.Second, StoreDir: t.TempDir()}, tiptop.DaemonOptions{Sim: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var late int
	for i := 0; i <= 40; i++ { // the attach pass, then 40 refreshes
		if i == 15 {
			if late, err = sc.StartSynthetic("user", "late", 1.5); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stores()[""]
	for _, pid := range []int{early, late} {
		raw, err := st.Query(tiptop.StoreQuery{PID: pid})
		if err != nil {
			t.Fatal(err)
		}
		tier, err := st.Query(tiptop.StoreQuery{PID: pid, StepSeconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(raw.Series) != 1 || len(tier.Series) != 1 || len(tier.Series[0].Points) < 2 {
			t.Fatalf("pid %d: %d raw series, %d tier series", pid, len(raw.Series), len(tier.Series))
		}
		ipc, mcycle := slices.Index(tier.Columns, "ipc"), slices.Index(tier.Columns, "mcycle")
		first := tier.Series[0].Points[0]
		// The raw rows the first bucket covers, after the attach read.
		var mcycles []float64
		cpu := 0.0
		for _, p := range raw.Series[0].Points[1:] {
			if bucketEnd(p.TimeSeconds, 10) == first.TimeSeconds {
				mcycles = append(mcycles, p.Values[mcycle])
				cpu += p.CPUPct
			}
		}
		attach := raw.Series[0].Points[0]
		if bucketEnd(attach.TimeSeconds, 10) != first.TimeSeconds || attach.IPC != 0 || attach.Values[mcycle] != 0 {
			t.Fatalf("pid %d: the raw tier's first row %+v is not an attach read inside the first bucket ending %gs", pid, attach, first.TimeSeconds)
		}
		var sum float64
		for _, v := range mcycles {
			sum += v
		}
		mean, cpu := sum/float64(len(mcycles)), cpu/float64(len(mcycles))
		if rel(first.CPUPct, cpu) > 1e-12 {
			t.Errorf("pid %d: first 10 s point reads CPU%% %v, the raw rows after the attach read %v", pid, first.CPUPct, cpu)
		}
		if rel(first.Values[ipc], first.IPC) > 1e-12 || rel(first.Values[mcycle], mean) > 1e-12 {
			t.Errorf("pid %d: first 10 s point at %gs reads ipc %.6g against IPC %.6g (%+.2f%%), mcycle %.6g against the mean %.6g of the %d raw rows after the attach read",
				pid, first.TimeSeconds, first.Values[ipc], first.IPC, 100*(first.Values[ipc]/first.IPC-1), first.Values[mcycle], mean, len(mcycles))
		}
	}
}

func rel(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// bucketEnd is the end of the res-second bucket holding time t.
func bucketEnd(t, res float64) float64 {
	return store.BucketEnd(time.Duration(t*float64(time.Second)), time.Duration(res*float64(time.Second))).Seconds()
}

// TestTierRecordsAreViewsOfCounts drives a seeded churning Daemon over
// one store, restarts it over the same directory, and reads every
// record back: every tier record's derived columns are their
// expressions over the record's counts per refresh, bit for bit; every
// tier row folded exactly the raw rows of its task and bucket that are
// not attach reads; and per event, a tier row's counts are the sum of
// those raw rows' counts.
func TestTierRecordsAreViewsOfCounts(t *testing.T) {
	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetSeed(3)
	rng := rand.New(rand.NewSource(3))
	var live []int
	start := func() {
		pid, err := sc.StartSynthetic("user", fmt.Sprint("job", len(live)), 0.4+2*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, pid)
	}
	for range 6 {
		start()
	}
	dir := t.TempDir()
	cfg := tiptop.Config{Interval: time.Second, StoreDir: dir}
	// run drives one daemon lifetime of n refreshes after its attach
	// pass, starting and killing jobs along the way.
	run := func(n int) {
		d, err := tiptop.NewDaemon(cfg, tiptop.DaemonOptions{Sim: sc})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= n; i++ {
			switch r := rng.Intn(10); {
			case r < 2:
				start()
			case r < 4 && len(live) > 2:
				k := rng.Intn(len(live))
				sc.Advance(time.Duration(rng.Intn(900)) * time.Millisecond)
				if err := sc.Kill(live[k]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, k, k+1)
			}
			if _, err := d.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run(130)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	restart := st.LastTime().Seconds()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	run(150)

	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type rawRow struct {
		t      float64
		run    int
		attach bool
		events []string
		counts []uint64
		cpu    float64
	}
	raw := map[int][]rawRow{} // by PID, in time order
	seen := map[[2]int]bool{} // (run, PID) attached
	scan(t, st, 0, func(rec *store.Record, _ []string) {
		runOf := 1
		if rec.TimeSeconds > restart {
			runOf = 2
		}
		for _, r := range rec.Rows {
			key := [2]int{runOf, r.PID}
			raw[r.PID] = append(raw[r.PID], rawRow{rec.TimeSeconds, runOf, !seen[key], rec.Events, slices.Clone(r.Counts), r.CPUPct})
			seen[key] = true
		}
	})
	screen := metrics.DefaultScreen()
	for _, res := range []float64{10, 60} {
		records, rows, derived := 0, 0, 0
		scan(t, st, res, func(rec *store.Record, cols []string) {
			records++
			progs := make([]*metrics.Bound, len(cols))
			slots := append(slices.Clone(rec.Events), metrics.VarCPUPct)
			for j, name := range cols {
				if k := slices.IndexFunc(screen.Columns, func(c *metrics.Column) bool { return c.Name == name }); k >= 0 {
					progs[j], _ = screen.Columns[k].Expr.Bind(slots)
				}
			}
			runOf := 1
			if rec.TimeSeconds > restart {
				runOf = 2
			}
			for _, r := range rec.Rows {
				rows++
				in := make([]float64, len(slots))
				for e := range rec.Events {
					in[e] = float64(r.Counts[e]) / float64(r.N)
				}
				in[len(rec.Events)] = r.CPUPct
				for j, p := range progs {
					if p == nil {
						continue
					}
					derived++
					if want := p.Eval(in, make([]float64, p.Depth())); math.Float64bits(r.Values[j]) != math.Float64bits(want) {
						t.Fatalf("%gs tier at %gs, pid %d: %s reads %v, its expression over the row's counts %v",
							res, rec.TimeSeconds, r.PID, cols[j], r.Values[j], want)
					}
				}
				// The raw rows this one folded: its task's, in its bucket,
				// of the same daemon run, attach reads aside.
				n, cpu, sums := 0, 0.0, make([]uint64, len(rec.Events))
				for _, rr := range raw[r.PID] {
					if bucketEnd(rr.t, res) != rec.TimeSeconds || rr.run != runOf || rr.attach {
						continue
					}
					n++
					cpu += rr.cpu
					for e, name := range rec.Events {
						if i := slices.Index(rr.events, name); i >= 0 {
							sums[e] += rr.counts[i]
						}
					}
				}
				if res == 10 && math.Abs(r.CPUPct-cpu/float64(n)) > 1e-9*cpu {
					t.Fatalf("10s tier at %gs, pid %d: CPU%% %v, the mean over its raw rows (attach reads aside) %v", rec.TimeSeconds, r.PID, r.CPUPct, cpu/float64(n))
				}
				if r.N != n || !slices.Equal(r.Counts, sums) {
					t.Fatalf("%gs tier at %gs, pid %d: the row folded %d refreshes with counts %v; its raw rows (attach reads aside) are %d with %v",
						res, rec.TimeSeconds, r.PID, r.N, r.Counts, n, sums)
				}
			}
		})
		if records < 3 || rows < 10 || derived == 0 {
			t.Fatalf("%gs tier: %d records, %d rows, %d derived values checked", res, records, rows, derived)
		}
	}
}

// scan reads every record of the tier serving step through fn.
func scan(t *testing.T, st *store.Store, step float64, fn func(rec *store.Record, cols []string)) {
	t.Helper()
	_, err := st.ScanWith(store.ScanOptions{QueryOptions: store.QueryOptions{StepSeconds: step}, Workers: 1},
		func(rec *store.Record, cols []string) error { fn(rec, cols); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

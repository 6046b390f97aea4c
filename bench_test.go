package tiptop

// Micro-benchmarks of the substrate hot paths (cache simulation, timing
// model, VM interpretation, counter reads, expression evaluation) and
// of the monitor's sampling and scrape paths. The one benchmark per
// table and figure of the paper lives beside the experiments, in
// internal/experiments.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/remote"
	"tiptop/internal/sim/cache"
	"tiptop/internal/sim/cpu"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
	"tiptop/internal/ukernel"
)

// --- substrate micro-benchmarks ---

func BenchmarkCacheSetAssocAccess(b *testing.B) {
	c, err := cache.NewSetAssoc(32<<10, 8, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64) % (1 << 20))
	}
}

func BenchmarkCacheMissRatioCurve(b *testing.B) {
	p := cache.TwoLevelProfile(256<<10, 16<<20, 0.8, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.MissRatio(float64(1 + i%(32<<20)))
	}
}

func BenchmarkCacheShareCapacity(b *testing.B) {
	sharers := []cache.Sharer{
		{RefRate: 2e9, Profile: cache.TwoLevelProfile(2<<20, 64<<20, 0.7, 0.02)},
		{RefRate: 1e9, Profile: cache.TwoLevelProfile(1<<20, 16<<20, 0.8, 0.01)},
		{RefRate: 5e8, Profile: cache.TwoLevelProfile(512<<10, 8<<20, 0.9, 0.01)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cache.ShareCapacity(8<<20, sharers)
	}
}

func BenchmarkTimingModelEvaluate(b *testing.B) {
	m := machine.XeonW3550()
	ctx := cpu.DefaultContext(m)
	params := cpu.PhaseParams{
		BaseCPI: 0.6, LoadsPKI: 300, StoresPKI: 100, BranchesPKI: 150,
		BranchMissRatio: 0.03, MLP: 5,
		Reuse: cache.TwoLevelProfile(256<<10, 8<<20, 0.85, 0.01),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cpu.Evaluate(params, ctx)
	}
}

func BenchmarkVMStep(b *testing.B) {
	prog, inputs := ukernel.FPMicroKernel(ukernel.FPModeSSE, ukernel.FPFinite, 1<<60)
	vm, err := ukernel.NewVM(prog, machine.XeonW3550())
	if err != nil {
		b.Fatal(err)
	}
	inputs.Apply(vm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerQuantum(b *testing.B) {
	k, err := sched.New(machine.XeonE5640x2(), sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		w := workload.Synthetic(workload.SyntheticSpec{Name: "j", IPC: 1.2})
		spin, err := workload.NewSpin(w, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		k.Spawn("u", "j", spin, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Advance(10 * time.Millisecond)
	}
}

func BenchmarkPMURead(b *testing.B) {
	k, err := sched.New(machine.XeonW3550(), sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Synthetic(workload.SyntheticSpec{Name: "j", IPC: 1.5})
	spin, err := workload.NewSpin(w, 1)
	if err != nil {
		b.Fatal(err)
	}
	task := k.Spawn("u", "j", spin, nil)
	backend := pmu.New(k)
	reg := hpm.DefaultRegistry()
	var events []hpm.EventDesc
	for _, name := range []string{hpm.EventCycles, hpm.EventInstructions, hpm.EventCacheMisses} {
		d, _ := reg.Lookup(name)
		events = append(events, d)
	}
	ctr, err := backend.Attach(task.ID(), events)
	if err != nil {
		b.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctr.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricExprEval(b *testing.B) {
	expr := metrics.MustCompile("per100(CACHE_MISSES, INSTRUCTIONS) + ratio(INSTRUCTIONS, CYCLES)")
	env := metrics.MapEnv{"CACHE_MISSES": 1234, "INSTRUCTIONS": 1e9, "CYCLES": 2e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricExprEvalBound is the same expression as the sampling
// engine evaluates it: bound once to a slot vector, no names hashed.
func BenchmarkMetricExprEvalBound(b *testing.B) {
	expr := metrics.MustCompile("per100(CACHE_MISSES, INSTRUCTIONS) + ratio(INSTRUCTIONS, CYCLES)")
	bound, err := expr.Bind([]string{"CACHE_MISSES", "INSTRUCTIONS", "CYCLES"})
	if err != nil {
		b.Fatal(err)
	}
	slots, stack := []float64{1234, 1e9, 2e9}, make([]float64, bound.Depth())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += bound.Eval(slots, stack)
	}
	if sink == 0 {
		b.Fatal("bound eval produced nothing")
	}
}

// BenchmarkEvalRows evaluates a screen's columns over a refresh's rows as
// the sampling engine does, a column at a time over a slot matrix
// ("rows"), against the same columns run a row at a time, each a batch
// of one ("one"): the wide screen over 320 rows (live_mux's shape) and
// the default one over 2000 (live_fleet's).
func BenchmarkEvalRows(b *testing.B) {
	for _, tc := range []struct {
		screen string
		rows   int
	}{{"wide", 320}, {"default", 2000}} {
		sc := metrics.BuiltinScreens()[tc.screen]
		names := append(sc.Identifiers(), metrics.ContextVars[:]...)
		cols, depth := make([]*metrics.Bound, len(sc.Columns)), 0
		for j, col := range sc.Columns {
			var err error
			if cols[j], err = col.Expr.Bind(names); err != nil {
				b.Fatal(err)
			}
			depth = max(depth, cols[j].Depth())
		}
		stride, r := len(names), rand.New(rand.NewSource(1))
		m := make([]float64, tc.rows*stride)
		for i := range m {
			m[i] = float64(r.Intn(1e9))
		}
		out := make([]float64, tc.rows)
		b.Run(fmt.Sprintf("%s/%d/rows", tc.screen, tc.rows), func(b *testing.B) {
			var scratch metrics.Scratch
			b.ReportAllocs()
			for b.Loop() {
				for _, col := range cols {
					col.EvalRows(out, m, stride, &scratch)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/%d/one", tc.screen, tc.rows), func(b *testing.B) {
			stack := make([]float64, depth)
			b.ReportAllocs()
			for b.Loop() {
				for _, col := range cols {
					for i := range out {
						out[i] = col.Eval(m[i*stride:(i+1)*stride], stack)
					}
				}
			}
		})
	}
}

func BenchmarkMonitorSample(b *testing.B) {
	sc, err := NewScenario(MachineXeonW3550)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := sc.StartSynthetic("u", "job", 1.5); err != nil {
			b.Fatal(err)
		}
	}
	mon, err := NewSimMonitor(sc, Config{Interval: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer mon.Close()
	if _, err := mon.SampleNow(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// scrapeFixture is bench/'s live_fleet node as a recorder sees it: tasks
// synthetic jobs job00000… owned by five users on the default screen,
// sampled refreshes times at 1 s (70 fill the one-minute rate window).
func scrapeFixture(tb testing.TB, tasks, refreshes int) (*Scenario, *Monitor, *Recorder) {
	tb.Helper()
	sc, mon := nodeFixture(tb, MachineE5640, "", tasks)
	rec := NewRecorder(RecorderOptions{})
	mon.Subscribe(rec)
	for i := 0; i < refreshes; i++ {
		if _, err := mon.Sample(); err != nil {
			tb.Fatal(err)
		}
	}
	return sc, mon, rec
}

// nodeFixture is a seeded node of the given machine running tasks
// synthetic jobs (nodeScenario), and a monitor of it on the named
// screen ("" is the default) that has not sampled yet.
func nodeFixture(tb testing.TB, machine MachineName, screen string, tasks int) (*Scenario, *Monitor) {
	tb.Helper()
	sc := nodeScenario(tb, machine, tasks)
	mon, err := NewSimMonitor(sc, Config{Interval: time.Second, Screen: screen})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mon.Close() })
	return sc, mon
}

// nodeScenario is a seeded node of the given machine running tasks
// synthetic jobs.
func nodeScenario(tb testing.TB, machine MachineName, tasks int) *Scenario {
	tb.Helper()
	sc, err := NewScenario(machine)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < tasks; i++ {
		job := SyntheticJob{Name: fmt.Sprintf("job%05d", i), IPC: 0.25 + 2.95*rng.Float64(), MemRefsPKI: float64(rng.Intn(8) * 40)}
		if _, err := sc.StartSyntheticJob("user"+strconv.Itoa(rng.Intn(5)), job); err != nil {
			tb.Fatal(err)
		}
	}
	return sc
}

// BenchmarkScrapeEncode2000 is what one refresh costs the first scraper
// of a 2000-task daemon: the recorder's copy-out, the exposition and the
// cache body it lands in (2.1 MB), once per version.
func BenchmarkScrapeEncode2000(b *testing.B) {
	_, _, rec := scrapeFixture(b, 2000, 70)
	cache := remote.NewEncodeCache(rec.WriteOpenMetrics)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := cache.Acquire(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		lease.Release()
	}
	b.ReportMetric(float64(cache.Stats().BodyBytes), "body-bytes")
}

// BenchmarkRefresh2000 is one refresh of a daemon's node — SampleNow,
// which feeds a recorder teed into a store, then WireSample and Publish
// — on bench/'s live_fleet node (the E5640's default screen) at its 2000
// tasks and at smaller sizes around core.SplitRows, and on its live_mux
// node (the Cortex-A7's 12-event wide screen, 320 tasks). The simulated
// machine's advance is outside the timer. Run it with -cpu 1,2: at two
// procs a sample of SplitRows tasks or more tees beside the recorder's
// fold and the public rows, which it builds in halves. p50-us is the
// median refresh, the ruler's statistic; ns/op is the mean, which also
// carries the store's bucket writes and the collector.
func BenchmarkRefresh2000(b *testing.B) {
	for _, node := range []struct {
		name    string
		machine MachineName
		screen  string
		tasks   []int
	}{
		{"e5640", MachineE5640, "", []int{256, 320, 640, 1000, 2000}},
		{"a7-wide", MachineCortexA7, "wide", []int{320}},
	} {
		for _, tasks := range node.tasks {
			b.Run(fmt.Sprintf("node=%s/tasks=%d", node.name, tasks), func(b *testing.B) {
				sc, mon := nodeFixture(b, node.machine, node.screen, tasks)
				rec := NewRecorder(RecorderOptions{})
				mon.Subscribe(rec)
				st, err := OpenStore(b.TempDir(), StoreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				rec.Tee(st)
				srv := remote.NewServer(rec.WriteOpenMetrics)
				for range 3 {
					if _, err := mon.Sample(); err != nil {
						b.Fatal(err)
					}
				}
				took := make([]time.Duration, 0, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sc.Advance(time.Second)
					b.StartTimer()
					t := time.Now()
					s, err := mon.SampleNow()
					if err != nil {
						b.Fatal(err)
					}
					if err := srv.Publish(mon.WireSample(s)); err != nil {
						b.Fatal(err)
					}
					took = append(took, time.Since(t))
				}
				b.StopTimer()
				if err := st.Err(); err != nil {
					b.Fatal(err)
				}
				slices.Sort(took)
				b.ReportMetric(float64(took[len(took)/2].Nanoseconds())/1e3, "p50-us")
			})
		}
	}
}

// BenchmarkHistoryStore2000 is what /api/v1/history pays with -store:
// one task's 600 refreshes read back from the raw tier of a 2000-task
// node, a scan of every row of the window. internal/history's
// BenchmarkHistory600 is the same read from a store-less recorder's ring.
func BenchmarkHistoryStore2000(b *testing.B) {
	const tasks, refreshes = 2000, 600
	st, err := OpenStore(b.TempDir(), StoreOptions{Budget: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := NewRecorder(RecorderOptions{Capacity: refreshes})
	rec.h.SetColumns([]string{"ipc", "dmis"})
	rec.Tee(st)
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	s := &core.Sample{Rows: make([]core.Row, tasks)}
	for i := range s.Rows {
		s.Rows[i] = core.Row{
			Info:   core.TaskInfo{ID: hpm.TaskID{PID: 100 + i, TID: 100 + i}, User: fmt.Sprint("u", i%7), Comm: fmt.Sprint("job", i%40), State: "R"},
			CPUPct: 50, Values: make([]float64, 2), Counts: make([]uint64, 3), Table: table, Valid: true,
		}
	}
	for r := 1; r <= refreshes; r++ {
		s.Time = time.Duration(r) * 2 * time.Second
		for i := range s.Rows {
			row := &s.Rows[i]
			row.Counts[0], row.Counts[1], row.Counts[2] = uint64(1000*(i+r)), uint64(500*(i+1)), uint64(i%13)
			row.Values[0], row.Values[1] = float64(i+r)/float64(i+1), float64(i%13)/100
		}
		rec.h.Observe(s)
	}
	if err := st.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h, err := rec.History(1100); err != nil || len(h) != 1 || len(h[0].Points) != refreshes {
			b.Fatalf("%d series, %v", len(h), err)
		}
	}
}

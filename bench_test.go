package tiptop

// The benchmark harness: one benchmark per table and figure of the
// paper, each regenerating the experiment end-to-end through the same
// drivers cmd/tipbench uses, plus micro-benchmarks of the substrate hot
// paths (cache simulation, timing model, VM interpretation, counter
// reads, expression evaluation). Headline reproduction numbers are
// attached to the benchmark output via ReportMetric, so
// `go test -bench=. -benchmem` doubles as a results table.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"tiptop/internal/experiments"
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

// benchConfig keeps the per-iteration cost of figure benchmarks modest.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.01, Seed: 1}
}

// runExperiment drives one registered experiment per b.N iteration and
// reports the requested headline metrics from the last run.
func runExperiment(b *testing.B, id string, report map[string]string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for metric, unit := range report {
		if v, ok := last.Metrics[metric]; ok {
			b.ReportMetric(v, unit)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkFig1Snapshot(b *testing.B) {
	runExperiment(b, "fig1", map[string]string{
		"ipc_process1":  "IPC(p1)",
		"cpu_process11": "%CPU(p11)",
	})
}

func BenchmarkTable1FPMicro(b *testing.B) {
	runExperiment(b, "tab1", map[string]string{
		"x87_slowdown":   "x87-slowdown-x",
		"ipc_x87/finite": "IPC-finite",
		"assist_x87/NaN": "%assist-NaN",
	})
}

func BenchmarkFig3REvolution(b *testing.B) {
	runExperiment(b, "fig3", map[string]string{
		"speedup_total":  "total-speedup-x",
		"speedup_faulty": "faulty-speedup-x",
		"ipc_after":      "IPC-floor",
	})
}

func BenchmarkFig6PhasesMcfAstar(b *testing.B) {
	runExperiment(b, "fig6", map[string]string{
		"ipc_429.mcf_Nehalem":   "mcf-IPC",
		"ipc_473.astar_Nehalem": "astar-IPC",
	})
}

func BenchmarkFig7PhasesBwavesGromacs(b *testing.B) {
	runExperiment(b, "fig7", map[string]string{
		"ipc_410.bwaves_Nehalem":  "bwaves-IPC",
		"ipc_435.gromacs_Nehalem": "gromacs-IPC",
	})
}

func BenchmarkFig8IPCvsInstructions(b *testing.B) {
	runExperiment(b, "fig8", map[string]string{
		"instr_M_Nehalem": "instr-M",
	})
}

func BenchmarkFig9CompilerComparison(b *testing.B) {
	runExperiment(b, "fig9", map[string]string{
		"ipc_a_hmmer_gcc": "hmmer-gcc-IPC",
		"ipc_a_hmmer_icc": "hmmer-icc-IPC",
	})
}

func BenchmarkFig10ProcessConflicts(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{
		"drop_pct_u1job1": "u1job1-drop-%",
		"min_cpu_pct":     "min-%CPU",
	})
}

func BenchmarkFig11McfInterference(b *testing.B) {
	runExperiment(b, "fig11", map[string]string{
		"slowdown_3runs_pct":  "3copy-slowdown-%",
		"samecore_slowdown_x": "samecore-x",
	})
}

func BenchmarkValidationInstructionCount(b *testing.B) {
	runExperiment(b, "val24", map[string]string{
		"worst_error_pct":     "worst-err-%",
		"worst_mux_error_pct": "worst-mux-err-%",
	})
}

func BenchmarkPerturbationOverhead(b *testing.B) {
	runExperiment(b, "per25", map[string]string{
		"overhead_pct":    "overhead-%",
		"noise_pct":       "noise-%",
		"inscount_factor": "inscount-x",
	})
}

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
	sc, err := NewScenario(MachineE5640)
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
	mon, err := NewSimMonitor(sc, Config{Interval: time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mon.Close() })
	rec := NewRecorder(RecorderOptions{})
	mon.Subscribe(rec)
	for i := 0; i < refreshes; i++ {
		if _, err := mon.Sample(); err != nil {
			tb.Fatal(err)
		}
	}
	return sc, mon, rec
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

package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run(DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	for _, n := range res.Notes {
		t.Log(n)
	}
	return res
}

func within(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if math.IsNaN(got) || got < lo || got > hi {
		t.Errorf("%s = %v, want in [%v, %v]", name, got, lo, hi)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("experiments = %d, want 11 (every table and figure)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "2"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "yyyy") {
		t.Fatalf("render: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
}

func TestTable1Shape(t *testing.T) {
	res := runExp(t, "tab1")
	// Paper Table 1: finite IPC 1.33 on both ISAs.
	within(t, "x87 finite IPC", res.Metrics["ipc_x87/finite"], 1.28, 1.38)
	within(t, "SSE finite IPC", res.Metrics["ipc_SSE/finite"], 1.28, 1.38)
	within(t, "SSE NaN IPC", res.Metrics["ipc_SSE/NaN"], 1.28, 1.38)
	within(t, "SSE inf IPC", res.Metrics["ipc_SSE/infinite"], 1.28, 1.38)
	// Non-finite x87: IPC ~0.015, 25 % assists, ~87x slowdown.
	within(t, "x87 NaN IPC", res.Metrics["ipc_x87/NaN"], 0.010, 0.022)
	within(t, "x87 inf IPC", res.Metrics["ipc_x87/infinite"], 0.010, 0.022)
	within(t, "x87 NaN assist%", res.Metrics["assist_x87/NaN"], 23, 27)
	within(t, "x87 slowdown", res.Metrics["x87_slowdown"], 70, 105)
	if res.Metrics["assist_SSE/NaN"] != 0 {
		t.Error("SSE must never assist")
	}
}

func TestFig3Shape(t *testing.T) {
	res := runExp(t, "fig3")
	samplesA := res.Metrics["samples_a"]
	if samplesA < 30 {
		t.Fatalf("run (a) too short: %v samples", samplesA)
	}
	// Drop location: 953 healthy of 3324 total ticks -> ~29 %.
	within(t, "drop position fraction", res.Metrics["drop_sample"]/samplesA, 0.15, 0.45)
	within(t, "IPC before drop", res.Metrics["ipc_before"], 0.85, 1.15)
	within(t, "IPC after drop", res.Metrics["ipc_after"], 0.005, 0.08)
	// Assists appear exactly at the drop (panel c).
	within(t, "assists before", res.Metrics["assist_before"], 0, 0.1)
	if res.Metrics["assist_after"] < 1 {
		t.Errorf("assists after drop = %v, want substantial", res.Metrics["assist_after"])
	}
	// Speedups: paper 2.3x total, 4.8x on the faulty part.
	within(t, "total speedup", res.Metrics["speedup_total"], 1.7, 3.0)
	within(t, "faulty-part speedup", res.Metrics["speedup_faulty"], 3.0, 7.0)
	// PPC970: no collapse, lower IPC, longer run.
	within(t, "PPC mean IPC", res.Metrics["ppc_ipc_mean"], 0.3, 0.8)
	if res.Metrics["ppc_min_over_mean"] < 0.3 {
		t.Errorf("PPC970 shows a collapse: min/mean = %v", res.Metrics["ppc_min_over_mean"])
	}
	if res.Metrics["samples_d"] <= res.Metrics["samples_b"] {
		t.Error("PPC970 run must be longer than the clipped Nehalem run")
	}
	if len(res.Plots) != 4 {
		t.Fatalf("plots = %d, want 4 panels", len(res.Plots))
	}
}

func TestFig6Shape(t *testing.T) {
	res := runExp(t, "fig6")
	for _, bench := range []string{"429.mcf", "473.astar"} {
		neh := res.Metrics["ipc_"+bench+"_Nehalem"]
		core := res.Metrics["ipc_"+bench+"_Core"]
		ppc := res.Metrics["ipc_"+bench+"_PPC970"]
		if !(neh > core && core > ppc) {
			t.Errorf("%s IPC ordering: Nehalem %.2f, Core %.2f, PPC970 %.2f", bench, neh, core, ppc)
		}
		// PPC970 takes the longest (lower frequency and IPC).
		if res.Metrics["samples_"+bench+"_PPC970"] <= res.Metrics["samples_"+bench+"_Nehalem"] {
			t.Errorf("%s: PPC970 must run longest", bench)
		}
	}
	// mcf is the memory-bound one: clearly lower IPC than astar.
	if res.Metrics["ipc_429.mcf_Nehalem"] >= res.Metrics["ipc_473.astar_Nehalem"] {
		t.Error("mcf must have lower IPC than astar on Nehalem")
	}
}

func TestFig7Shape(t *testing.T) {
	res := runExp(t, "fig7")
	// gromacs is compute-bound with high IPC; bwaves lower.
	within(t, "gromacs Nehalem IPC", res.Metrics["ipc_435.gromacs_Nehalem"], 1.5, 2.0)
	within(t, "bwaves Nehalem IPC", res.Metrics["ipc_410.bwaves_Nehalem"], 0.9, 1.4)
}

func TestFig8Shape(t *testing.T) {
	res := runExp(t, "fig8")
	// The two Intel machines execute the same binary: identical totals.
	if diff := math.Abs(res.Metrics["intel_total_rel_diff"]); diff > 0.01 {
		t.Errorf("Intel instruction totals differ by %.2f%%", diff*100)
	}
	if res.Metrics["instr_M_Nehalem"] <= 0 {
		t.Fatal("no instructions recorded")
	}
	// The PowerPC "slightly shifts" (different ISA: we model it as a
	// small constant offset through CPIScale; totals need not match).
	if res.Metrics["instr_M_PPC970"] <= 0 {
		t.Fatal("PPC970 trace missing")
	}
}

func TestFig9Shape(t *testing.T) {
	res := runExp(t, "fig9")
	// (a) hmmer: gcc higher IPC AND faster.
	if !(res.Metrics["ipc_a_hmmer_gcc"] > res.Metrics["ipc_a_hmmer_icc"]) {
		t.Error("hmmer: gcc IPC must exceed icc")
	}
	if !(res.Metrics["time_a_hmmer_gcc"] < res.Metrics["time_a_hmmer_icc"]) {
		t.Error("hmmer: gcc must finish first")
	}
	// (b) sphinx3: icc lower IPC yet faster.
	if !(res.Metrics["ipc_b_sphinx3_icc"] < res.Metrics["ipc_b_sphinx3_gcc"]) {
		t.Error("sphinx3: icc IPC must be lower")
	}
	if !(res.Metrics["time_b_sphinx3_icc"] < res.Metrics["time_b_sphinx3_gcc"]) {
		t.Error("sphinx3: icc must finish first despite lower IPC")
	}
	// (c) h264ref: inversion between phases.
	if !(res.Metrics["h264_phase1_gcc"] > res.Metrics["h264_phase1_icc"]) {
		t.Error("h264ref phase 1: gcc must lead")
	}
	if !(res.Metrics["h264_phase2_gcc"] < res.Metrics["h264_phase2_icc"]) {
		t.Error("h264ref phase 2: icc must lead (inversion)")
	}
	// (d) milc: same time (2 %), persistent IPC gap.
	tg, ti := res.Metrics["time_d_milc_gcc"], res.Metrics["time_d_milc_icc"]
	if math.Abs(tg-ti)/ti > 0.06 {
		t.Errorf("milc: run times must match: %v vs %v", tg, ti)
	}
	if !(res.Metrics["ipc_d_milc_gcc"] > res.Metrics["ipc_d_milc_icc"]*1.05) {
		t.Error("milc: gcc IPC must be consistently higher")
	}
}

func TestFig1Shape(t *testing.T) {
	res := runExp(t, "fig1")
	if res.Metrics["rows"] != 11 {
		t.Fatalf("rows = %v, want 11 processes", res.Metrics["rows"])
	}
	// IPC values near the paper's snapshot (loose: co-residency on the
	// 16-logical-core node shifts them a little).
	// The displayed IPCs sit below the solo calibration targets because
	// 11 jobs on 8 physical cores force SMT co-residency, as on the real
	// node behind the paper's snapshot.
	within(t, "process1 IPC", res.Metrics["ipc_process1"], 1.3, 2.3)
	within(t, "process4 IPC", res.Metrics["ipc_process4"], 1.6, 2.7)
	within(t, "process6 IPC", res.Metrics["ipc_process6"], 0.4, 0.95)
	// The memory-bound job is the only one with a visible miss rate.
	if res.Metrics["dmis_process6"] < 0.3 {
		t.Errorf("process6 DMIS = %v, want >= 0.3", res.Metrics["dmis_process6"])
	}
	if res.Metrics["dmis_process1"] > 0.2 {
		t.Errorf("process1 DMIS = %v, want ~0", res.Metrics["dmis_process1"])
	}
	// The interactive job shows ~43.7 % CPU; everything else ~100 %.
	within(t, "process11 %CPU", res.Metrics["cpu_process11"], 36, 52)
	within(t, "process1 %CPU", res.Metrics["cpu_process1"], 97, 101)
}

func TestFig10Shape(t *testing.T) {
	res := runExp(t, "fig10")
	// Both user1 jobs slow down noticeably during the overlap...
	within(t, "u1job1 drop %", res.Metrics["drop_pct_u1job1"], 5, 40)
	within(t, "u1job2 drop %", res.Metrics["drop_pct_u1job2"], 5, 40)
	// ...and recover afterwards.
	for _, job := range []string{"u1job1", "u1job2"} {
		before, after := res.Metrics["before_"+job], res.Metrics["after_"+job]
		if math.Abs(before-after)/before > 0.12 {
			t.Errorf("%s must recover: before %.2f, after %.2f", job, before, after)
		}
		if res.Metrics["during_"+job] >= before {
			t.Errorf("%s must dip during overlap", job)
		}
	}
	// The whole point of §3.4: CPU usage never reveals the conflict.
	if res.Metrics["min_cpu_pct"] < 99 {
		t.Errorf("min %%CPU = %v, must stay above 99", res.Metrics["min_cpu_pct"])
	}
}

func TestFig11Shape(t *testing.T) {
	res := runExp(t, "fig11")
	// (a) IPC decreases with each added copy; up to ~30 % at 3 copies.
	if !(res.Metrics["ipc_1runs"] > res.Metrics["ipc_2runs"] &&
		res.Metrics["ipc_2runs"] > res.Metrics["ipc_3runs"]) {
		t.Errorf("IPC must fall with copies: %.2f/%.2f/%.2f",
			res.Metrics["ipc_1runs"], res.Metrics["ipc_2runs"], res.Metrics["ipc_3runs"])
	}
	within(t, "3-copy slowdown %", res.Metrics["slowdown_3runs_pct"], 8, 45)
	// CPU usage stays maximal in every configuration.
	for _, k := range []string{"min_cpu_1runs", "min_cpu_2runs", "min_cpu_3runs"} {
		if res.Metrics[k] < 99 {
			t.Errorf("%s = %v, want >= 99", k, res.Metrics[k])
		}
	}
	// (b) LLC misses rise with copies.
	if !(res.Metrics["dmis_1runs"] < res.Metrics["dmis_2runs"] &&
		res.Metrics["dmis_2runs"] < res.Metrics["dmis_3runs"]) {
		t.Errorf("DMIS must rise with copies: %.2f/%.2f/%.2f",
			res.Metrics["dmis_1runs"], res.Metrics["dmis_2runs"], res.Metrics["dmis_3runs"])
	}
	// (d) same-core: L2 explodes, L3 similar, ~2x slowdown.
	if res.Metrics["l2_samecore"] < 2.5*res.Metrics["l2_1run"] {
		t.Errorf("same-core L2 misses must increase dramatically: %.1f -> %.1f",
			res.Metrics["l2_1run"], res.Metrics["l2_samecore"])
	}
	// "the number of L3 misses is similar to having the two processes
	// on different cores": same-core vs two-separate-cores, both of
	// which share the L3 between two copies.
	if r := res.Metrics["l3_samecore"] / res.Metrics["l3_2runs"]; r < 0.6 || r > 1.5 {
		t.Errorf("same-core L3 misses must match the separate-core co-run: %.1f vs %.1f",
			res.Metrics["l3_samecore"], res.Metrics["l3_2runs"])
	}
	within(t, "same-core slowdown", res.Metrics["samecore_slowdown_x"], 1.5, 2.6)
	// L2 misses "increase dramatically" (paper: ~2.5 -> 12-18 per 100).
	if res.Metrics["l2_samecore"] < 3.5*res.Metrics["l2_1run"] {
		t.Errorf("same-core L2 explosion too small: %.1f -> %.1f",
			res.Metrics["l2_1run"], res.Metrics["l2_samecore"])
	}
	// (c) topology table present.
	found := false
	for _, tab := range res.Tables {
		if strings.Contains(tab.Header[0], "Socket#0") {
			found = true
		}
	}
	if !found {
		t.Error("topology rendering missing")
	}
}

// TestValidationShape: val24 is a view of the oracle's report. Every
// metric is 100 × the RelError of its entry — the Xeon W3550's session
// count for err_, the Cortex-A7's rotated count for mux_err_ — and the
// worst errors hold the paper's 0.06% and the report's mux tolerance.
func TestValidationShape(t *testing.T) {
	res := runExp(t, "val24")
	rep, err := RunOracle()
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		prefix, model, layer, worst string
	}{
		{"err_", "w3550", LayerSession, "worst_error_pct"},
		{"mux_err_", "a7", LayerMux, "worst_mux_error_pct"},
	}
	want := map[string]float64{}
	for _, v := range views {
		want[v.worst] = 0
		for _, e := range rep.Entries {
			if e.Model == v.model && e.Layer == v.layer && e.Event == "INSTRUCTIONS" {
				want[v.prefix+e.Kernel] = 100 * e.RelError
				want[v.worst] = max(want[v.worst], 100*e.RelError)
			}
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("val24 has %d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, w := range want {
		if got, ok := res.Metrics[name]; !ok || got != w {
			t.Errorf("%s = %v (present %v), want %v from the oracle report", name, got, ok, w)
		}
	}
	// Paper: within 0.06 % of Pin. The exact-counter path is lossless.
	if res.Metrics["worst_error_pct"] > 0.06 {
		t.Errorf("worst exact-counter error = %v%%, paper bound 0.06%%",
			res.Metrics["worst_error_pct"])
	}
	if res.Metrics["worst_mux_error_pct"] > 100*rep.MuxTolerance {
		t.Errorf("worst multiplexed error = %v%%, the oracle's tolerance %v%%",
			res.Metrics["worst_mux_error_pct"], 100*rep.MuxTolerance)
	}
}

func TestPerturbationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("perturbation runs the suite 11 times")
	}
	res := runExp(t, "per25")
	overhead := res.Metrics["overhead_pct"]
	noise := res.Metrics["noise_pct"]
	// The paper's conclusion: overhead within the order of the noise.
	if overhead > noise+1.5 {
		t.Errorf("overhead %.2f%% not within noise %.2f%%", overhead, noise)
	}
	if overhead < -1.5 {
		t.Errorf("monitored runs implausibly faster: %v%%", overhead)
	}
	within(t, "instrumentation factor", res.Metrics["inscount_factor"], 1.5, 1.9)
}

func TestDeterminism(t *testing.T) {
	e, _ := Get("tab1")
	r1, err := e.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r1.Metrics {
		if r2.Metrics[k] != v {
			t.Errorf("metric %s not deterministic: %v vs %v", k, v, r2.Metrics[k])
		}
	}
}

// TestFiguresUseTheFacade keeps the figures, the counter-validation
// oracle and its §2.4 view on the daemon, store and queries users run:
// only the §2.5 perturbation study and the ablations, which measure the
// engine and the simulator themselves, may compose them from the
// internal packages — or hand-compose the daemon's monitor, recorder
// and store from the facade.
func TestFiguresUseTheFacade(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	engine := []string{
		"tiptop/internal/core", "tiptop/internal/sim/sched", "tiptop/internal/sim/pmu", "tiptop/internal/sim/proc",
		"tiptop/internal/mux", "tiptop/internal/store", "tiptop/internal/query", "tiptop/internal/metrics",
	}
	composers := []string{"NewSimMonitor", "NewRecorder", "OpenStore"}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		if name == "per25.go" || name == "ablation.go" {
			continue
		}
		facade := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if slices.Contains(engine, path) {
				t.Errorf("%s imports %q: run it through the tiptop facade", name, path)
			}
			if path == "tiptop" {
				facade = "tiptop"
				if imp.Name != nil {
					facade = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == facade && slices.Contains(composers, sel.Sel.Name) {
					t.Errorf("%s: tiptop.%s: run it on a tiptop.Daemon", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	if checked < 5 {
		t.Fatalf("parsed %d of the package's files; is the test running in its package directory?", checked)
	}
}

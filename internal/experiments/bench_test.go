package experiments

// One benchmark per table and figure of the paper, each regenerating
// the experiment end to end through the drivers cmd/tipbench uses.
// Headline reproduction numbers are attached to the benchmark output
// via ReportMetric, so `go test -bench=. -benchmem` doubles as a
// results table.

import "testing"

// benchConfig keeps the per-iteration cost of figure benchmarks modest.
func benchConfig() Config {
	return Config{Scale: 0.01, Seed: 1}
}

// runBench drives one registered experiment per b.N iteration and
// reports the requested headline metrics from the last run.
func runBench(b *testing.B, id string, report map[string]string) {
	b.Helper()
	e, ok := Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last *Result
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

func BenchmarkFig1Snapshot(b *testing.B) {
	runBench(b, "fig1", map[string]string{
		"ipc_process1":  "IPC(p1)",
		"cpu_process11": "%CPU(p11)",
	})
}

func BenchmarkTable1FPMicro(b *testing.B) {
	runBench(b, "tab1", map[string]string{
		"x87_slowdown":   "x87-slowdown-x",
		"ipc_x87/finite": "IPC-finite",
		"assist_x87/NaN": "%assist-NaN",
	})
}

func BenchmarkFig3REvolution(b *testing.B) {
	runBench(b, "fig3", map[string]string{
		"speedup_total":  "total-speedup-x",
		"speedup_faulty": "faulty-speedup-x",
		"ipc_after":      "IPC-floor",
	})
}

func BenchmarkFig6PhasesMcfAstar(b *testing.B) {
	runBench(b, "fig6", map[string]string{
		"ipc_429.mcf_Nehalem":   "mcf-IPC",
		"ipc_473.astar_Nehalem": "astar-IPC",
	})
}

func BenchmarkFig7PhasesBwavesGromacs(b *testing.B) {
	runBench(b, "fig7", map[string]string{
		"ipc_410.bwaves_Nehalem":  "bwaves-IPC",
		"ipc_435.gromacs_Nehalem": "gromacs-IPC",
	})
}

func BenchmarkFig8IPCvsInstructions(b *testing.B) {
	runBench(b, "fig8", map[string]string{
		"instr_M_Nehalem": "instr-M",
	})
}

func BenchmarkFig9CompilerComparison(b *testing.B) {
	runBench(b, "fig9", map[string]string{
		"ipc_a_hmmer_gcc": "hmmer-gcc-IPC",
		"ipc_a_hmmer_icc": "hmmer-icc-IPC",
	})
}

func BenchmarkFig10ProcessConflicts(b *testing.B) {
	runBench(b, "fig10", map[string]string{
		"drop_pct_u1job1": "u1job1-drop-%",
		"min_cpu_pct":     "min-%CPU",
	})
}

func BenchmarkFig11McfInterference(b *testing.B) {
	runBench(b, "fig11", map[string]string{
		"slowdown_3runs_pct":  "3copy-slowdown-%",
		"samecore_slowdown_x": "samecore-x",
	})
}

func BenchmarkValidationInstructionCount(b *testing.B) {
	runBench(b, "val24", map[string]string{
		"worst_error_pct":     "worst-err-%",
		"worst_mux_error_pct": "worst-mux-err-%",
	})
}

func BenchmarkPerturbationOverhead(b *testing.B) {
	runBench(b, "per25", map[string]string{
		"overhead_pct":    "overhead-%",
		"noise_pct":       "noise-%",
		"inscount_factor": "inscount-x",
	})
}

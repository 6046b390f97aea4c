package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelectedExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-run", "tab1", "-scale", "0.01", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	// Artifacts: per-experiment text, CSVs for plots, summary.
	txt, err := os.ReadFile(filepath.Join(dir, "tab1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "x87") {
		t.Fatalf("tab1.txt content: %s", txt)
	}
	sum, err := os.ReadFile(filepath.Join(dir, "SUMMARY.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sum), "tab1") {
		t.Fatal("summary missing experiment")
	}
}

func TestRunPlotsEmitCSVAndGnuplot(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-run", "fig8", "-scale", "0.01", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig8_1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "Nehalem") {
		t.Fatalf("csv content: %.100s", csv)
	}
	gp, err := os.ReadFile(filepath.Join(dir, "fig8_1.gp"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gp), "plot") {
		t.Fatal("gnuplot script malformed")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig99"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag must fail")
	}
}

// TestBenchRefreshJSON drives -bench-refresh at a tiny task count and
// checks the machine-readable report. The real `make bench` run uses
// the default 1000,4000 fleet.
func TestBenchRefreshJSON(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-bench-refresh", "-bench-tasks", "8", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_refresh.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		GeneratedBy string `json:"generated_by"`
		GoMaxProcs  int    `json:"go_max_procs"`
		Benchmarks  []struct {
			Name        string  `json:"name"`
			Tasks       int     `json:"tasks"`
			Parallelism int     `json:"parallelism"`
			Shards      int     `json:"shards"`
			Iterations  int     `json:"iterations"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_refresh.json: %v\n%s", err, data)
	}
	if report.GoMaxProcs <= 0 || report.GeneratedBy == "" {
		t.Fatalf("report meta = %+v", report)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want serial + sharded", len(report.Benchmarks))
	}
	serial, sharded := report.Benchmarks[0], report.Benchmarks[1]
	if serial.Name != "Update8Serial" || serial.Parallelism != 1 || serial.Shards != 1 {
		t.Fatalf("serial = %+v", serial)
	}
	if sharded.Name != "Update8Sharded" || sharded.Parallelism != 0 || sharded.Shards < 1 {
		t.Fatalf("sharded = %+v", sharded)
	}
	for _, b := range report.Benchmarks {
		if b.Tasks != 8 || b.Iterations <= 0 || b.NsPerOp <= 0 {
			t.Fatalf("bench = %+v", b)
		}
	}
}

func TestBenchRefreshBadTasks(t *testing.T) {
	for _, bad := range []string{"", "0", "-5", "abc", "10,x"} {
		if err := run([]string{"-bench-refresh", "-bench-tasks", bad, "-out", t.TempDir()}); err == nil {
			t.Errorf("-bench-tasks %q must fail", bad)
		}
	}
}

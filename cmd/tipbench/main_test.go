package main

import (
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

// TestRunBadFlag: an unknown flag is refused, never accepted and
// ignored; -j is one.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"-j", "2", "-list"}} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("run(%q) = %v, want the unknown-flag error", args, err)
		}
	}
}

// TestSummaryGolden regenerates every experiment at the default scale
// and seed and compares SUMMARY.txt with testdata/summary.golden byte
// for byte. The simulator is deterministic, so a line that moves is a
// changed measurement, and the golden's diff is the list of them.
func TestSummaryGolden(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scale", "0.02", "-seed", "1", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "SUMMARY.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "summary.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("SUMMARY.txt drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestValidateGolden runs the counter-validation oracle and compares
// VALIDATE.json, minus its go_version line, with
// testdata/validate.golden byte for byte. The oracle is deterministic,
// so any moved count, error or verdict shows up in the golden's diff.
func TestValidateGolden(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-validate", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "VALIDATE.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), `"go_version":`) {
			got.WriteString(line)
		}
	}
	golden := filepath.Join("testdata", "validate.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("VALIDATE.json drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}

package main

// The -validate mode: the counter-validation oracle
// (experiments.RunOracle). Every ukernel.ValidationSuite micro-kernel
// runs as a process of a simulated scenario on all four conformance
// machine models, watched by the sim monitor with a recorder teed into
// a default store, and the measured counts are asserted at each layer
// (session deltas, mux extrapolation, store round-trip, derived query
// expressions) against the kernels' analytic expectations. The matrix
// is written to <outDir>/VALIDATE.json and the exit status carries the
// verdict — this is the `make validate` CI gate.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"tiptop/internal/experiments"
)

// validateReport is the VALIDATE.json document: the conformance matrix
// plus provenance.
type validateReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	experiments.OracleReport
}

// benchValidate runs the conformance harness and writes
// <outDir>/VALIDATE.json, returning an error when any gate failed.
func benchValidate(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Println("== validate: analytic micro-kernels through session → mux → store → query")
	rep, err := experiments.RunOracle()
	if err != nil {
		return err
	}
	report := validateReport{
		GeneratedBy:  "tipbench -validate",
		GoVersion:    runtime.Version(),
		OracleReport: *rep,
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "VALIDATE.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	failed := 0
	for _, e := range rep.Entries {
		if !e.Pass {
			failed++
			fmt.Printf("   FAIL %s on %s, %s layer, %s: expected %.6g measured %.6g (rel error %.4f)\n",
				e.Kernel, e.Model, e.Layer, e.Event, e.Expected, e.Measured, e.RelError)
		}
	}
	fmt.Printf("   %d kernels × %d models, %d assertions; worst muxed rel error %.4f (tolerance %.2f), %d exact violations, %d unsupported events\n",
		len(rep.Kernels), len(rep.Models), len(rep.Entries),
		rep.WorstMuxedRelError, rep.MuxTolerance, rep.ExactViolations, rep.UnsupportedEvents)
	fmt.Println("validation matrix:", path)
	if !rep.Pass || failed > 0 {
		return fmt.Errorf("validation failed: %d entries out of tolerance", failed)
	}
	return nil
}

package experiments

import (
	"testing"

	"tiptop/internal/hpm"
)

// TestConformanceMatrix runs the full oracle — every ValidationSuite
// kernel on all four machine models through session → mux → store →
// query — and asserts the gates tipbench -validate enforces in CI:
// exact counts on unconstrained layers, ≤5% on mux-extrapolated ones.
func TestConformanceMatrix(t *testing.T) {
	rep, err := RunOracle()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Models) != 4 || len(rep.Kernels) != 5 {
		t.Fatalf("matrix shape: %d models, %d kernels", len(rep.Models), len(rep.Kernels))
	}
	for _, e := range rep.Entries {
		if !e.Pass {
			t.Errorf("%s on %s, layer %s, %s: expected %.6g measured %.6g (rel error %.4f, exact=%v)",
				e.Kernel, e.Model, e.Layer, e.Event, e.Expected, e.Measured, e.RelError, e.Exact)
		}
	}
	if rep.ExactViolations != 0 {
		t.Errorf("%d exact-layer violations", rep.ExactViolations)
	}
	if rep.WorstMuxedRelError > rep.MuxTolerance {
		t.Errorf("worst muxed relative error %.4f exceeds %.2f", rep.WorstMuxedRelError, rep.MuxTolerance)
	}
	if !rep.Pass {
		t.Error("report did not pass")
	}
}

// TestUnsupportedEventsReported asserts that a model without the
// FP-assist raw code surfaces the event as unsupported — a
// distinguishable report, not a silent zero count.
func TestUnsupportedEventsReported(t *testing.T) {
	rep, err := RunOracle()
	if err != nil {
		t.Fatal(err)
	}
	var ppcUnsupported, xeonSupported int
	for _, e := range rep.Entries {
		if e.Event != hpm.EventFPAssist {
			continue
		}
		switch {
		case e.Model == "ppc970" && !e.Supported:
			ppcUnsupported++
		case e.Model == "w3550" && e.Supported:
			xeonSupported++
		case e.Model == "ppc970" && e.Supported:
			t.Errorf("ppc970 reported FP_ASSIST as a counted event (%s layer): missing hardware must be unsupported, not zero", e.Layer)
		}
	}
	if ppcUnsupported == 0 {
		t.Error("no unsupported FP_ASSIST entries for ppc970")
	}
	if xeonSupported == 0 {
		t.Error("no supported FP_ASSIST entries for w3550")
	}
	if rep.UnsupportedEvents == 0 {
		t.Error("report counted no unsupported events")
	}
}

package experiments

import (
	"fmt"

	"tiptop"
)

// RunValidation regenerates the §2.4 validation as a view of one
// counter-validation oracle run (RunOracle): the instruction counts
// tiptopd measures are compared against two oracles, as the paper
// compares tiptop against analytic micro-kernel counts and Pin's
// inscount2:
//
//  1. the analytic count of each hand-crafted micro-kernel, and
//  2. the VM's architecturally exact retire count (the Pin stand-in).
//
// The exact table reads the Xeon W3550's analytic and session entries,
// where the screen fits the PMU. The multiplexing table reads the
// Cortex-A7's mux entries: the oracle's eight-event screen on four
// counters, rotated and extrapolated as tiptop ships it.
func RunValidation(Config) (*Result, error) {
	rep, err := RunOracle()
	if err != nil {
		return nil, err
	}
	res := newResult("val24", "Section 2.4: instruction-count validation")
	// entry finds a kernel's INSTRUCTIONS entry of one model and layer.
	entry := func(model tiptop.MachineName, kernel, layer string) (OracleEntry, error) {
		for _, e := range rep.Entries {
			if e.Model == string(model) && e.Kernel == kernel && e.Layer == layer && e.Event == "INSTRUCTIONS" {
				return e, nil
			}
		}
		return OracleEntry{}, fmt.Errorf("val24: no %s %s entry for %s", model, layer, kernel)
	}

	table := &Table{
		Title:  "Instruction counts: tiptop vs analytic vs VM oracle (exact counters, Xeon W3550)",
		Header: []string{"kernel", "analytic", "oracle", "tiptop", "error vs oracle"},
	}
	muxTable := &Table{
		Title:  "Instruction counts under counter multiplexing (8 events, 4 counters, Cortex-A7)",
		Header: []string{"kernel", "oracle", "tiptop (scaled)", "error"},
	}
	var worst, worstMux float64
	for _, k := range rep.Kernels {
		analytic, err := entry(tiptop.MachineXeonW3550, k, LayerAnalytic)
		if err != nil {
			return nil, err
		}
		exact, err := entry(tiptop.MachineXeonW3550, k, LayerSession)
		if err != nil {
			return nil, err
		}
		muxed, err := entry(tiptop.MachineCortexA7, k, LayerMux)
		if err != nil {
			return nil, err
		}
		errPct, muxPct := 100*exact.RelError, 100*muxed.RelError
		worst, worstMux = max(worst, errPct), max(worstMux, muxPct)
		res.Metrics["err_"+k] = errPct
		res.Metrics["mux_err_"+k] = muxPct
		table.Rows = append(table.Rows, []string{
			k, fmt.Sprint(analytic.Expected), fmt.Sprint(exact.Expected), fmt.Sprint(exact.Measured),
			fmt.Sprintf("%.4f%%", errPct),
		})
		muxTable.Rows = append(muxTable.Rows, []string{
			k, fmt.Sprint(muxed.Expected), fmt.Sprint(muxed.Measured), fmt.Sprintf("%.2f%%", muxPct),
		})
	}
	res.Tables = append(res.Tables, table, muxTable)
	res.Metrics["worst_error_pct"] = worst
	res.Metrics["worst_mux_error_pct"] = worstMux

	res.notef("paper: tiptop within 0.06%% of Pin's count on average (SPEC 2006)")
	res.notef("measured: worst error vs VM oracle %.4f%% with exact counters; %.2f%% under 2x multiplexing",
		worst, worstMux)
	return res, nil
}

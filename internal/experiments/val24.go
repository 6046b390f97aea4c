package experiments

import (
	"fmt"
	"math"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/ukernel"
)

// RunValidation regenerates the §2.4 validation: the instruction counts
// measured through the full tiptop path (virtual PMU -> perf-style reads
// -> engine deltas) are compared against two oracles, exactly as the
// paper compares tiptop against analytic micro-kernel counts and Pin's
// inscount2:
//
//  1. the analytic count of each hand-crafted micro-kernel, and
//  2. the VM's architecturally exact retire count (the Pin stand-in).
//
// A second pass repeats the measurement on the 4-counter Core 2 machine
// with more events than counters, quantifying the additional error
// introduced by time-multiplex scaling.
func RunValidation(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("val24", "Section 2.4: instruction-count validation")

	exactScreen := metrics.DefaultScreen()
	// A wide screen forcing multiplexing on machines with few counters.
	wide := &metrics.Screen{
		Name: "wide",
		Columns: []*metrics.Column{
			{Name: "ipc", Header: "IPC", Width: 6, Format: "%6.2f",
				Expr: metrics.MustCompile("ratio(INSTRUCTIONS, CYCLES)")},
			{Name: "aux", Header: "AUX", Width: 6, Format: "%6.2f",
				Expr: metrics.MustCompile("LOADS + STORES + BRANCHES + BRANCH_MISSES + CACHE_REFERENCES + CACHE_MISSES")},
		},
	}

	measure := func(m *machine.Machine, screen *metrics.Screen, k ukernel.ValidationKernel) (measured uint64, oracle uint64, err error) {
		kern := newKernel(m, cfg)
		runner, err := ukernel.NewRunner(k.Name, k.Program, k.Inputs, m)
		if err != nil {
			return 0, 0, err
		}
		kern.Spawn("user", k.Name, runner, nil)
		s, err := simSession(kern, screen, 100*time.Millisecond, "cpu")
		if err != nil {
			return 0, 0, err
		}
		defer s.Close()
		var instr uint64
		err = monitorUntilDone(s, kern, 1_000_000, func(_ int, sample *coreSample) {
			if row := rowByComm(sample, k.Name); row != nil && row.Valid {
				instr += row.Count(hpm.EventInstructions)
			}
		})
		if err != nil {
			return 0, 0, err
		}
		return instr, runner.VM().Counts().Instructions, nil
	}

	table := &Table{
		Title:  "Instruction counts: tiptop vs analytic vs VM oracle (exact counters)",
		Header: []string{"kernel", "analytic", "oracle", "tiptop", "error vs oracle"},
	}
	var worst float64
	for _, k := range ukernel.ValidationSuite() {
		got, oracle, err := measure(machine.XeonW3550(), exactScreen, k)
		if err != nil {
			return nil, err
		}
		if oracle != k.ExpectedInstructions {
			return nil, fmt.Errorf("val24: %s oracle %d != analytic %d", k.Name, oracle, k.ExpectedInstructions)
		}
		errPct := 100 * math.Abs(float64(got)-float64(oracle)) / float64(oracle)
		if errPct > worst {
			worst = errPct
		}
		table.Rows = append(table.Rows, []string{
			k.Name,
			fmt.Sprint(k.ExpectedInstructions),
			fmt.Sprint(oracle),
			fmt.Sprint(got),
			fmt.Sprintf("%.4f%%", errPct),
		})
		res.Metrics["err_"+k.Name] = errPct
	}
	res.Tables = append(res.Tables, table)
	res.Metrics["worst_error_pct"] = worst

	// Multiplexed pass: 8 events on the 4-counter Core 2.
	muxTable := &Table{
		Title:  "Instruction counts under counter multiplexing (8 events, 4 counters)",
		Header: []string{"kernel", "oracle", "tiptop (scaled)", "error"},
	}
	var worstMux float64
	for _, k := range ukernel.ValidationSuite() {
		got, oracle, err := measure(machine.Core2(), wide, k)
		if err != nil {
			return nil, err
		}
		errPct := 100 * math.Abs(float64(got)-float64(oracle)) / float64(oracle)
		if errPct > worstMux {
			worstMux = errPct
		}
		muxTable.Rows = append(muxTable.Rows, []string{
			k.Name, fmt.Sprint(oracle), fmt.Sprint(got), fmt.Sprintf("%.2f%%", errPct),
		})
		res.Metrics["mux_err_"+k.Name] = errPct
	}
	res.Tables = append(res.Tables, muxTable)
	res.Metrics["worst_mux_error_pct"] = worstMux

	res.notef("paper: tiptop within 0.06%% of Pin's count on average (SPEC 2006)")
	res.notef("measured: worst error vs VM oracle %.4f%% with exact counters; %.2f%% under 2x multiplexing",
		worst, worstMux)
	return res, nil
}

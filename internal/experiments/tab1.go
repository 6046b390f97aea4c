package experiments

import (
	"fmt"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/ukernel"
)

// RunTable1 regenerates Table 1: the four-instruction FP micro-benchmark
// of Figures 4/5 in x87 and SSE modes with finite and non-finite
// operands, *measured by tiptop* — the micro-kernel runs as a task of the
// simulated Nehalem machine and the engine's FP screen reports IPC and
// the assist rate, exactly the two columns of the paper's table.
func RunTable1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("tab1", "Table 1: measured behavior of the FP micro-benchmark")

	iterations := int64(2_000_000 * cfg.Scale)
	if iterations < 20_000 {
		iterations = 20_000
	}

	type cell struct{ ipc, assistPct float64 }
	measure := func(mode ukernel.FPMode, vals ukernel.FPValues) (cell, error) {
		m := machine.XeonW3550()
		k := newKernel(m, cfg)
		prog, inputs := ukernel.FPMicroKernel(mode, vals, iterations)
		runner, err := ukernel.NewRunner("fpmicro", prog, inputs, m)
		if err != nil {
			return cell{}, err
		}
		k.Spawn("user", "fpmicro", runner, nil)
		s, err := simSession(k, metrics.FPScreen(), time.Second, "cpu")
		if err != nil {
			return cell{}, err
		}
		defer s.Close()

		// Accumulate counter deltas over the whole run, as the paper
		// does when it quotes a single IPC per configuration.
		var cycles, instr, assists uint64
		err = monitorUntilDone(s, k, 100000, func(_ int, sample *coreSample) {
			if row := rowByComm(sample, "fpmicro"); row != nil && row.Valid {
				cycles += row.Count(hpm.EventCycles)
				instr += row.Count(hpm.EventInstructions)
				assists += row.Count(hpm.EventFPAssist)
			}
		})
		if err != nil {
			return cell{}, err
		}
		if cycles == 0 || instr == 0 {
			return cell{}, fmt.Errorf("tab1: no events measured for %v/%v", mode, vals)
		}
		return cell{
			ipc:       float64(instr) / float64(cycles),
			assistPct: 100 * float64(assists) / float64(instr),
		}, nil
	}

	table := &Table{
		Title:  "Measured behavior of the floating point micro benchmark",
		Header: []string{"mode", "operands", "IPC", "%FP assist"},
	}
	configs := []struct {
		mode ukernel.FPMode
		vals ukernel.FPValues
	}{
		{ukernel.FPModeX87, ukernel.FPFinite},
		{ukernel.FPModeX87, ukernel.FPInfinite},
		{ukernel.FPModeX87, ukernel.FPNaN},
		{ukernel.FPModeSSE, ukernel.FPFinite},
		{ukernel.FPModeSSE, ukernel.FPInfinite},
		{ukernel.FPModeSSE, ukernel.FPNaN},
	}
	cells := map[string]cell{}
	for _, c := range configs {
		got, err := measure(c.mode, c.vals)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%v/%v", c.mode, c.vals)
		cells[key] = got
		table.Rows = append(table.Rows, []string{
			c.mode.String(), c.vals.String(),
			fmt.Sprintf("%.3f", got.ipc),
			fmt.Sprintf("%.1f%%", got.assistPct),
		})
		res.Metrics["ipc_"+key] = got.ipc
		res.Metrics["assist_"+key] = got.assistPct
	}
	res.Tables = append(res.Tables, table)

	slowdown := cells["x87/finite"].ipc / cells["x87/NaN"].ipc
	res.Metrics["x87_slowdown"] = slowdown
	res.notef("paper: x87 finite IPC 1.33, non-finite 0.015 (25%% assists), slowdown 87x")
	res.notef("measured: x87 finite IPC %.2f, NaN %.4f (%.0f%% assists), slowdown %.0fx",
		cells["x87/finite"].ipc, cells["x87/NaN"].ipc,
		cells["x87/NaN"].assistPct, slowdown)
	res.notef("paper: SSE IPC 1.33 in all operand classes, 0%% assists")
	res.notef("measured: SSE finite %.2f, inf %.2f, NaN %.2f, assists all 0%%",
		cells["SSE/finite"].ipc, cells["SSE/infinite"].ipc, cells["SSE/NaN"].ipc)
	return res, nil
}

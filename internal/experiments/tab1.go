package experiments

import (
	"fmt"
	"strings"
	"time"

	"tiptop"
)

// RunTable1 regenerates Table 1: the four-instruction FP micro-benchmark
// of Figures 4/5 in x87 and SSE modes with finite and non-finite
// operands, *measured by tiptop* — the micro-kernel runs as a process of
// the simulated Nehalem machine and the FP screen reports IPC and the
// assist rate, exactly the two columns of the paper's table.
func RunTable1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("tab1", "Table 1: measured behavior of the FP micro-benchmark")

	iterations := int64(2_000_000 * cfg.Scale)
	if iterations < 20_000 {
		iterations = 20_000
	}

	type cell struct{ ipc, assistPct float64 }
	measure := func(mode, values string) (cell, error) {
		sc, err := tiptop.NewScenario(tiptop.MachineXeonW3550)
		if err != nil {
			return cell{}, err
		}
		pid, err := sc.StartFPMicro("user", mode, values, iterations)
		if err != nil {
			return cell{}, err
		}
		r, err := monitor(sc, tiptop.Config{Screen: "fp", Interval: time.Second})
		if err != nil {
			return cell{}, err
		}
		defer r.close()
		if err := r.untilExit(pid); err != nil {
			return cell{}, err
		}
		// Totals over the whole run, as the paper quotes a single IPC
		// per configuration: each refresh's counts summed. The assist
		// column is per100(FP_ASSIST, INSTRUCTIONS), so weighting it by
		// the instructions gives back the refresh's assists.
		var sums [3]float64
		for i, expr := range []string{"INSTRUCTIONS", "CYCLES", "assist * INSTRUCTIONS / 100"} {
			pts, err := r.points(expr)
			if err != nil {
				return cell{}, err
			}
			for _, ps := range pts {
				for _, p := range ps {
					sums[i] += p.Y
				}
			}
		}
		instr, cycles, assists := sums[0], sums[1], sums[2]
		if cycles == 0 || instr == 0 {
			return cell{}, fmt.Errorf("tab1: no events measured for %s/%s", mode, values)
		}
		return cell{ipc: instr / cycles, assistPct: 100 * assists / instr}, nil
	}

	table := &Table{
		Title:  "Measured behavior of the floating point micro benchmark",
		Header: []string{"mode", "operands", "IPC", "%FP assist"},
	}
	// Each configuration as StartFPMicro names it, then as the table does.
	configs := []struct{ mode, values, key string }{
		{"x87", "finite", "x87/finite"},
		{"x87", "inf", "x87/infinite"},
		{"x87", "nan", "x87/NaN"},
		{"sse", "finite", "SSE/finite"},
		{"sse", "inf", "SSE/infinite"},
		{"sse", "nan", "SSE/NaN"},
	}
	cells := map[string]cell{}
	for _, c := range configs {
		got, err := measure(c.mode, c.values)
		if err != nil {
			return nil, err
		}
		cells[c.key] = got
		mode, operands, _ := strings.Cut(c.key, "/")
		table.Rows = append(table.Rows, []string{
			mode, operands,
			fmt.Sprintf("%.3f", got.ipc),
			fmt.Sprintf("%.1f%%", got.assistPct),
		})
		res.Metrics["ipc_"+c.key] = got.ipc
		res.Metrics["assist_"+c.key] = got.assistPct
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

package experiments

import (
	"fmt"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/phase"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/workload"
	"tiptop/internal/trace"
)

// phaseTrace runs one workload solo on one machine, sampled by tiptop at
// the given interval, and returns (IPC series over sample index, series
// of IPC over cumulative instructions in millions, total samples).
func phaseTrace(cfg Config, m *machine.Machine, w *workload.Workload, interval time.Duration, seed int64) (*trace.Series, *trace.Series, int, error) {
	k := newKernel(m, cfg)
	k.Spawn("user", w.Name, workload.MustInstance(workload.Scaled(w, cfg.Scale), seed), nil)
	s, err := simSession(k, metrics.DefaultScreen(), interval, "cpu")
	if err != nil {
		return nil, nil, 0, err
	}
	defer s.Close()
	byTime := &trace.Series{Name: w.Name}
	byInstr := &trace.Series{Name: w.Name}
	var cumInstr float64
	samples := 0
	err = monitorUntilDone(s, k, 500_000, func(i int, sample *coreSample) {
		row := rowByComm(sample, w.Name)
		if row == nil || !row.Valid {
			return
		}
		ipc := row.IPC()
		if ipc == 0 {
			return
		}
		cumInstr += float64(row.Count(hpm.EventInstructions))
		byTime.Add(float64(i), ipc)
		byInstr.Add(cumInstr/1e6, ipc)
		samples = i + 1
	})
	return byTime, byInstr, samples, err
}

// machineSet is the three platforms of Figures 6–8.
func machineSet() []*machine.Machine {
	return []*machine.Machine{machine.XeonW3550(), machine.Core2(), machine.PPC970()}
}

// runPhaseFigure drives one Figure 6/7 panel: one workload on the three
// machines.
func runPhaseFigure(cfg Config, res *Result, w *workload.Workload, interval time.Duration) error {
	plot := trace.NewPlot(fmt.Sprintf("IPC of %s", w.Name), "sample (1s/tick)", "IPC")
	for _, m := range machineSet() {
		byTime, _, samples, err := phaseTrace(cfg, m, w, interval, cfg.Seed)
		if err != nil {
			return err
		}
		byTime.Name = m.MicroArch
		plot.Series = append(plot.Series, byTime)
		key := fmt.Sprintf("%s_%s", w.Name, m.MicroArch)
		res.Metrics["ipc_"+key] = byTime.MeanY()
		res.Metrics["samples_"+key] = float64(samples)
	}
	res.Plots = append(res.Plots, plot)
	return nil
}

// RunFig6 regenerates Figure 6: IPC phase plots of 429.mcf and 473.astar
// on Nehalem, Core and PPC970 at one sample per second.
func RunFig6(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig6", "Figure 6: IPC of 429.mcf and 473.astar")
	for _, w := range []*workload.Workload{workload.MCF(), workload.Astar()} {
		if err := runPhaseFigure(cfg, res, w, time.Second); err != nil {
			return nil, err
		}
	}
	res.notef("paper: similar phase shapes across architectures, differing in IPC level and run time; PPC970 runs longest")
	res.notef("measured: mean IPC mcf %.2f/%.2f/%.2f and astar %.2f/%.2f/%.2f on Nehalem/Core/PPC970",
		res.Metrics["ipc_429.mcf_Nehalem"], res.Metrics["ipc_429.mcf_Core"], res.Metrics["ipc_429.mcf_PPC970"],
		res.Metrics["ipc_473.astar_Nehalem"], res.Metrics["ipc_473.astar_Core"], res.Metrics["ipc_473.astar_PPC970"])
	return res, nil
}

// RunFig7 regenerates Figure 7: IPC phase plots of 410.bwaves and
// 435.gromacs.
func RunFig7(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig7", "Figure 7: IPC of 410.bwaves and 435.gromacs")
	for _, w := range []*workload.Workload{workload.Bwaves(), workload.Gromacs()} {
		if err := runPhaseFigure(cfg, res, w, time.Second); err != nil {
			return nil, err
		}
	}
	res.notef("paper: gromacs shows small but noticeable variations on Nehalem; bwaves alternates solver and boundary phases")
	res.notef("measured: mean IPC bwaves %.2f and gromacs %.2f on Nehalem",
		res.Metrics["ipc_410.bwaves_Nehalem"], res.Metrics["ipc_435.gromacs_Nehalem"])
	return res, nil
}

// RunFig8 regenerates Figure 8: IPC of 473.astar as a function of the
// number of executed instructions on the three processors — the plot the
// paper proposes for picking per-platform fast-forward points in
// simulator studies.
func RunFig8(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig8", "Figure 8: IPC versus executed instructions for 473.astar")
	plot := trace.NewPlot("IPC versus executed instructions, 473.astar",
		"executed instructions (millions)", "IPC")
	w := workload.Astar()
	var totals []float64
	for _, m := range machineSet() {
		_, byInstr, _, err := phaseTrace(cfg, m, w, time.Second, cfg.Seed)
		if err != nil {
			return nil, err
		}
		byInstr.Name = m.MicroArch
		plot.Series = append(plot.Series, byInstr)
		res.Metrics["instr_M_"+m.MicroArch] = byInstr.MaxX()
		totals = append(totals, byInstr.MaxX())
	}
	res.Plots = append(res.Plots, plot)
	// Both Intel machines execute the same binary: their instruction
	// totals coincide; the PPC970 is shifted.
	rel := 0.0
	if totals[0] > 0 {
		rel = (totals[1] - totals[0]) / totals[0]
	}
	res.Metrics["intel_total_rel_diff"] = rel

	// The methodology the paper derives from this figure: pick a
	// per-platform fast-forward point (in instructions) past the
	// initialization phase, refining blind skip-1-billion conventions.
	for _, series := range plot.Series {
		xs := make([]float64, series.Len())
		ys := make([]float64, series.Len())
		for i, p := range series.Points {
			xs[i], ys[i] = p.X, p.Y
		}
		ff, err := phase.FastForward(xs, ys, 0.1)
		if err == nil {
			res.Metrics["fastforward_M_"+series.Name] = ff
		}
	}

	res.notef("paper: both Intel processors execute the same instruction stream; the PowerPC slightly shifts")
	res.notef("measured: instruction totals (M) Nehalem %.0f, Core %.0f (rel diff %.1f%%), PPC970 %.0f; suggested fast-forward points (M instr): Nehalem %.0f, Core %.0f, PPC970 %.0f",
		totals[0], totals[1], 100*rel, totals[2],
		res.Metrics["fastforward_M_Nehalem"], res.Metrics["fastforward_M_Core"], res.Metrics["fastforward_M_PPC970"])
	return res, nil
}

// RunFig9 regenerates Figure 9: the gcc-vs-icc study of §3.3. Four
// qualitative regimes, one per panel:
//
//	(a) 456.hmmer   — the higher-IPC binary is also the faster one;
//	(b) 482.sphinx3 — the lower-IPC binary is faster;
//	(c) 464.h264ref — two phases with an IPC *inversion* between the
//	                  compilers, invisible in aggregated counts;
//	(d) 433.milc    — identical run times despite a constant IPC gap.
func RunFig9(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig9", "Figure 9: IPC produced by different compilers")
	nehalem := machine.XeonW3550()

	pairs := []struct {
		panel    string
		gcc, icc *workload.Workload
	}{
		{"a_hmmer", workload.HmmerGCC(), workload.HmmerICC()},
		{"b_sphinx3", workload.Sphinx3GCC(), workload.Sphinx3ICC()},
		{"c_h264ref", workload.H264RefGCC(), workload.H264RefICC()},
		{"d_milc", workload.MilcGCC(), workload.MilcICC()},
	}
	for _, pair := range pairs {
		plot := trace.NewPlot(fmt.Sprintf("Figure 9 (%s)", pair.panel), "sample (1s/tick)", "IPC")
		for _, w := range []*workload.Workload{pair.gcc, pair.icc} {
			byTime, _, samples, err := phaseTrace(cfg, nehalem, w, time.Second, cfg.Seed)
			if err != nil {
				return nil, err
			}
			comp := "gcc"
			if w == pair.icc {
				comp = "icc"
			}
			byTime.Name = comp
			plot.Series = append(plot.Series, byTime)
			res.Metrics[fmt.Sprintf("ipc_%s_%s", pair.panel, comp)] = byTime.MeanY()
			res.Metrics[fmt.Sprintf("time_%s_%s", pair.panel, comp)] = float64(samples)
		}
		res.Plots = append(res.Plots, plot)
	}

	// The h264ref inversion: compare per-phase means of the two series.
	h264 := res.Plots[2]
	gccSeries, iccSeries := h264.Series[0], h264.Series[1]
	split := gccSeries.MaxX() * 0.18 // phase 1 is the short prefix
	res.Metrics["h264_phase1_gcc"] = gccSeries.WindowMeanY(0, split)
	res.Metrics["h264_phase1_icc"] = iccSeries.WindowMeanY(0, split)
	res.Metrics["h264_phase2_gcc"] = gccSeries.WindowMeanY(split, gccSeries.MaxX()+1)
	res.Metrics["h264_phase2_icc"] = iccSeries.WindowMeanY(split, iccSeries.MaxX()+1)

	res.notef("paper: (a) higher IPC wins; (b) lower IPC wins; (c) phase-wise IPC inversion; (d) equal times despite an IPC gap")
	res.notef("measured: hmmer gcc %.2f@%.0fs vs icc %.2f@%.0fs; sphinx3 gcc %.2f@%.0fs vs icc %.2f@%.0fs; h264 phase1 %.2f/%.2f phase2 %.2f/%.2f; milc %.2f vs %.2f at %.0f/%.0fs",
		res.Metrics["ipc_a_hmmer_gcc"], res.Metrics["time_a_hmmer_gcc"],
		res.Metrics["ipc_a_hmmer_icc"], res.Metrics["time_a_hmmer_icc"],
		res.Metrics["ipc_b_sphinx3_gcc"], res.Metrics["time_b_sphinx3_gcc"],
		res.Metrics["ipc_b_sphinx3_icc"], res.Metrics["time_b_sphinx3_icc"],
		res.Metrics["h264_phase1_gcc"], res.Metrics["h264_phase1_icc"],
		res.Metrics["h264_phase2_gcc"], res.Metrics["h264_phase2_icc"],
		res.Metrics["ipc_d_milc_gcc"], res.Metrics["ipc_d_milc_icc"],
		res.Metrics["time_d_milc_gcc"], res.Metrics["time_d_milc_icc"])
	return res, nil
}

package experiments

import (
	"time"

	"tiptop"
	"tiptop/internal/phase"
	"tiptop/internal/sim/machine"
	"tiptop/internal/stats"
	"tiptop/internal/trace"
)

// RunFig3 regenerates Figure 3, the §3.1 use case: the biologists' R
// evolutionary algorithm monitored by tiptop at one sample every five
// seconds.
//
//	(a) original algorithm on Nehalem: IPC ~1 for 953 time steps, then a
//	    collapse to ~0.03 with brief pulses;
//	(b) clipped algorithm on Nehalem: IPC stays ~1, the run is ~2.3x
//	    shorter overall (~4.8x on the faulty part alone);
//	(c) zoom on the transition with the FP_ASSIST column added: the
//	    assist rate jumps exactly when the IPC drops;
//	(d) original algorithm on PPC970: no assist pathology, flat noisy
//	    IPC at a lower level, longer total run.
//
// The catalog shortens the run by its number of time steps, never the
// length of one step, so a 5-second sample keeps covering at most one
// iteration and the 0.03 floor with its brief pulses survives at small
// scale.
func RunFig3(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig3", "Figure 3: IPC of the R evolutionary algorithm")

	type runOut struct {
		ipc     *trace.Series
		assist  *trace.Series
		samples int
	}
	trial := func(name tiptop.MachineName, algorithm string) (runOut, error) {
		sc, err := tiptop.NewScenario(name)
		if err != nil {
			return runOut{}, err
		}
		sc.SetSeed(cfg.Seed)
		pid, err := sc.StartWorkload("biologist", algorithm, cfg.Scale)
		if err != nil {
			return runOut{}, err
		}
		m := sc.Machine()
		screen, exprs := "fp", []string{"ratio(INSTRUCTIONS, CYCLES)", "assist"}
		if m.FPAssistPenalty == 0 {
			// The PPC970 has no FP_ASSIST event (§3.1); use the
			// default screen there, as the paper's plot does.
			screen, exprs = "default", exprs[:1]
		}
		r, err := monitor(sc, tiptop.Config{Screen: screen, Interval: 5 * time.Second})
		if err != nil {
			return runOut{}, err
		}
		defer r.close()
		if err := r.untilExit(pid); err != nil {
			return runOut{}, err
		}
		series, err := r.series(exprs...)
		if err != nil {
			return runOut{}, err
		}
		var out runOut
		if out.ipc, err = only(series[0]); err != nil {
			return runOut{}, err
		}
		out.ipc.Name = plotName(m, algorithm == "r-evolution-clipped")
		out.samples = int(out.ipc.MaxX()) + 1
		if len(series) > 1 {
			out.assist, err = only(series[1])
		}
		return out, err
	}

	a, err := trial(tiptop.MachineXeonW3550, "r-evolution")
	if err != nil {
		return nil, err
	}
	b, err := trial(tiptop.MachineXeonW3550, "r-evolution-clipped")
	if err != nil {
		return nil, err
	}
	d, err := trial(tiptop.MachinePPC970, "r-evolution")
	if err != nil {
		return nil, err
	}
	plotA := trace.NewPlot("Figure 3 (a): original algorithm on Nehalem", "sample (5s/tick)", "IPC")
	plotA.Series = append(plotA.Series, a.ipc)
	plotB := trace.NewPlot("Figure 3 (b): algorithm with clipping on Nehalem", "sample (5s/tick)", "IPC")
	plotB.Series = append(plotB.Series, b.ipc)
	plotD := trace.NewPlot("Figure 3 (d): original algorithm on PowerPC", "sample (5s/tick)", "IPC")
	plotD.Series = append(plotD.Series, d.ipc)
	// (c) zoom: IPC and assist rate around the transition, located by
	// the phase detector (the automated version of the paper's visual
	// observation).
	plotC := trace.NewPlot("Figure 3 (c): transition zoom (IPC vs %FP_assist)", "sample (5s/tick)", "IPC / %assist")
	healthySamples := dropIndex(a.ipc)
	lo := float64(healthySamples) * 0.85
	hi := float64(healthySamples) * 1.3
	zoomIPC := plotC.NewSeries("IPC")
	zoomAsst := plotC.NewSeries("assist/100instr")
	for _, p := range a.ipc.Points {
		if p.X >= lo && p.X <= hi {
			zoomIPC.Add(p.X, p.Y)
		}
	}
	for _, p := range a.assist.Points {
		if p.X >= lo && p.X <= hi {
			zoomAsst.Add(p.X, p.Y)
		}
	}

	res.Plots = append(res.Plots, plotA, plotB, plotC, plotD)

	// Headline metrics.
	dropAt := float64(healthySamples)
	ipcBefore := a.ipc.WindowMeanY(0, dropAt)
	ipcAfter := lowQuantileAfter(a.ipc, dropAt)
	speedupTotal := float64(a.samples) / float64(b.samples)
	faultyA := float64(a.samples) - dropAt
	faultyB := float64(b.samples) - dropAt
	speedupFaulty := faultyA / faultyB
	assistBefore := a.assist.WindowMeanY(0, dropAt)
	assistAfter := a.assist.WindowMeanY(dropAt+1, float64(a.samples))

	res.Metrics["samples_a"] = float64(a.samples)
	res.Metrics["samples_b"] = float64(b.samples)
	res.Metrics["samples_d"] = float64(d.samples)
	res.Metrics["drop_sample"] = dropAt
	res.Metrics["ipc_before"] = ipcBefore
	res.Metrics["ipc_after"] = ipcAfter
	res.Metrics["speedup_total"] = speedupTotal
	res.Metrics["speedup_faulty"] = speedupFaulty
	res.Metrics["assist_before"] = assistBefore
	res.Metrics["assist_after"] = assistAfter
	res.Metrics["ppc_ipc_mean"] = d.ipc.MeanY()
	res.Metrics["ppc_min_over_mean"] = minOverMean(d.ipc)

	res.notef("paper: IPC ~1 for 953 steps then 0.03 with brief pulses; clipping gives 2.3x total and 4.8x on the faulty part; PPC970 shows no drop")
	res.notef("measured (scale %.3g): drop at sample %.0f of %d; IPC %.2f -> %.3f; assists %.1f -> %.1f per 100 instr; speedups %.2fx total, %.2fx faulty; PPC970 mean IPC %.2f with no collapse",
		cfg.Scale, dropAt, a.samples, ipcBefore, ipcAfter, assistBefore, assistAfter,
		speedupTotal, speedupFaulty, d.ipc.MeanY())
	return res, nil
}

func plotName(m *machine.Machine, clipped bool) string {
	name := m.MicroArch
	if clipped {
		name += " (clipped)"
	}
	return name
}

// dropIndex locates the phase transition via the phase detector.
func dropIndex(s *trace.Series) int {
	ys := make([]float64, s.Len())
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	if d := phase.DropPoint(ys); d >= 0 {
		return d
	}
	return s.Len()
}

// lowQuantileAfter estimates the post-drop floor (the pulses bias a
// plain mean upward, so use the 25th percentile).
func lowQuantileAfter(s *trace.Series, dropAt float64) float64 {
	var ys []float64
	for _, p := range s.Points {
		if p.X > dropAt {
			ys = append(ys, p.Y)
		}
	}
	q, err := stats.Quantile(ys, 0.25)
	if err != nil {
		return 0
	}
	return q
}

// minOverMean returns min(Y)/mean(Y), a flatness indicator: a series
// with no collapse stays well above the ~0.03 ratio of Figure 3 (a).
func minOverMean(s *trace.Series) float64 {
	if s.Len() == 0 {
		return 0
	}
	min := s.Points[0].Y
	for _, p := range s.Points {
		if p.Y < min {
			min = p.Y
		}
	}
	m := s.MeanY()
	if m == 0 {
		return 0
	}
	return min / m
}

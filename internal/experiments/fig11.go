package experiments

import (
	"fmt"
	"slices"
	"time"

	"tiptop"
	"tiptop/internal/trace"
)

// RunFig11 regenerates Figure 11, the controlled §3.4 interference
// experiment on the quad-core Nehalem:
//
//	(a) IPC of 429.mcf with 1, 2, 3 copies pinned to distinct physical
//	    cores (taskset), showing up to ~30 % slowdown at 3 copies while
//	    %CPU stays above 99 %;
//	(b) last-level cache misses per 100 instructions for the same runs,
//	    rising with each extra copy;
//	(c) the machine topology, as hwloc renders it;
//	(d) two copies on the *same* physical core (logical CPUs 0 and 4):
//	    L3 misses stay similar to the separate-core case but L2 misses
//	    explode, roughly halving throughput.
func RunFig11(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig11", "Figure 11: cross-core interferences for 429.mcf")

	type runOut struct {
		ipc, dmis, l2m, l3m *trace.Series
		minCPU              float64
	}
	var topology string
	// corun runs one copy pinned to each of cpus and traces the first
	// copy.
	corun := func(cpus []int) (runOut, error) {
		sc, err := tiptop.NewScenario(tiptop.MachineXeonW3550)
		if err != nil {
			return runOut{}, err
		}
		topology = sc.Topology()
		sc.SetSeed(cfg.Seed)
		pids := make([]int, len(cpus))
		for i, cpu := range cpus {
			if pids[i], err = sc.StartWorkload("user", "mcf", cfg.Scale, cpu); err != nil {
				return runOut{}, err
			}
		}
		r, err := monitor(sc, tiptop.Config{Screen: "mem", Interval: 5 * time.Second})
		if err != nil {
			return runOut{}, err
		}
		defer r.close()
		if err := r.untilExit(pids...); err != nil {
			return runOut{}, err
		}
		got, err := r.store().Query(tiptop.StoreQuery{PID: pids[0]})
		if err != nil {
			return runOut{}, err
		}
		if len(got.Series) != 1 {
			return runOut{}, fmt.Errorf("fig11: %d series for the first copy", len(got.Series))
		}
		l2, l3 := slices.Index(got.Columns, "l2m"), slices.Index(got.Columns, "l3m")
		if l2 < 0 || l3 < 0 {
			return runOut{}, fmt.Errorf("fig11: the store lacks the l2m or l3m column: %v", got.Columns)
		}
		label := fmt.Sprintf("%d run(s)", len(cpus))
		out := runOut{
			ipc:    &trace.Series{Name: label},
			dmis:   &trace.Series{Name: label},
			l2m:    &trace.Series{Name: "L2 - " + label},
			l3m:    &trace.Series{Name: "L3 - " + label},
			minCPU: 200,
		}
		points := got.Series[0].Points
		for i, p := range points {
			if p.IPC == 0 {
				continue
			}
			x := r.index(p.TimeSeconds)
			out.ipc.Add(x, p.IPC)
			out.l2m.Add(x, p.Values[l2])
			out.l3m.Add(x, p.Values[l3])
			out.dmis.Add(x, p.Values[l3])
			// The last point is the exit row: the partial interval
			// after the copy finished.
			if i > 0 && i < len(points)-1 {
				out.minCPU = min(out.minCPU, p.CPUPct)
			}
		}
		return out, nil
	}

	// (a)+(b): 1, 2, 3 copies on distinct physical cores.
	plotA := trace.NewPlot("Figure 11 (a): IPC of mcf, co-running copies on distinct cores", "sample (5s/tick)", "IPC")
	plotB := trace.NewPlot("Figure 11 (b): LLC misses per 100 instructions", "sample (5s/tick)", "misses/100instr")
	var sep []runOut
	for copies := 1; copies <= 3; copies++ {
		cpus := make([]int, copies)
		for i := range cpus {
			cpus[i] = i
		}
		out, err := corun(cpus)
		if err != nil {
			return nil, err
		}
		sep = append(sep, out)
		plotA.Series = append(plotA.Series, out.ipc)
		plotB.Series = append(plotB.Series, out.dmis)
		res.Metrics[fmt.Sprintf("ipc_%druns", copies)] = out.ipc.MeanY()
		res.Metrics[fmt.Sprintf("dmis_%druns", copies)] = out.dmis.MeanY()
		res.Metrics[fmt.Sprintf("min_cpu_%druns", copies)] = out.minCPU
	}

	// (d): two copies on SMT siblings of core 0 (logical CPUs 0 and 4).
	sameCore, err := corun([]int{0, 4})
	if err != nil {
		return nil, err
	}
	plotD := trace.NewPlot("Figure 11 (d): L2/L3 misses per 100 instructions, same physical core", "sample (5s/tick)", "misses/100instr")
	oneL2 := sep[0].l2m
	oneL2.Name = "L2 - 1 run"
	oneL3 := sep[0].l3m
	oneL3.Name = "L3 - 1 run"
	sameL2 := sameCore.l2m
	sameL2.Name = "L2 - 2 runs same core"
	sameL3 := sameCore.l3m
	sameL3.Name = "L3 - 2 runs same core"
	plotD.Series = append(plotD.Series, oneL3, oneL2, sameL3, sameL2)

	res.Plots = append(res.Plots, plotA, plotB, plotD)

	// (c): topology art.
	res.Tables = append(res.Tables, &Table{
		Title:  "Figure 11 (c): machine topology (hwloc-style)",
		Header: []string{topology},
	})

	// Headline numbers.
	slow3 := 1 - res.Metrics["ipc_3runs"]/res.Metrics["ipc_1runs"]
	res.Metrics["slowdown_3runs_pct"] = 100 * slow3
	res.Metrics["l2_1run"] = sep[0].l2m.MeanY()
	res.Metrics["l2_samecore"] = sameCore.l2m.MeanY()
	res.Metrics["l3_1run"] = sep[0].l3m.MeanY()
	res.Metrics["l3_2runs"] = sep[1].l3m.MeanY()
	res.Metrics["l3_samecore"] = sameCore.l3m.MeanY()
	res.Metrics["ipc_samecore"] = sameCore.ipc.MeanY()
	sameSlow := res.Metrics["ipc_2runs"] / res.Metrics["ipc_samecore"]
	res.Metrics["samecore_slowdown_x"] = sameSlow

	res.notef("paper: up to 30%% slowdown at 3 copies with CPU usage above 99.3%%; LLC misses/100instr rise with copies; same-core L2 misses increase dramatically causing ~2x slowdown while L3 misses stay similar")
	res.notef("measured: IPC 1/2/3 copies %.2f/%.2f/%.2f (3-copy slowdown %.0f%%); DMIS %.1f/%.1f/%.1f; same-core IPC %.2f = %.2fx vs separate cores; L2 misses %.1f -> %.1f, L3 misses %.1f same-core vs %.1f separate (similar, as the paper observes)",
		res.Metrics["ipc_1runs"], res.Metrics["ipc_2runs"], res.Metrics["ipc_3runs"],
		res.Metrics["slowdown_3runs_pct"],
		res.Metrics["dmis_1runs"], res.Metrics["dmis_2runs"], res.Metrics["dmis_3runs"],
		res.Metrics["ipc_samecore"], sameSlow,
		res.Metrics["l2_1run"], res.Metrics["l2_samecore"],
		res.Metrics["l3_samecore"], res.Metrics["l3_2runs"])
	return res, nil
}

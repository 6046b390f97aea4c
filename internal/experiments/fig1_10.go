package experiments

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"tiptop"
	"tiptop/internal/trace"
)

// fig1Job is one process of Figure 1's anonymized roster: eleven
// processes of three users on a 16-logical-core bi-Xeon E5640, with the
// IPC values the paper's snapshot displays. process6 is the one
// memory-bound job (DMIS 0.9); process11 runs at 43.7 % CPU.
type fig1Job struct {
	n    int // processN
	user string
	ipc  float64
	mem  bool // memory-hungry (visible DMIS)
	duty bool // partially idle (the 43.7 % process)
}

// fig1Roster lists the processes in the order they start: the partially
// idle one, then the ten batch jobs.
func fig1Roster() []fig1Job {
	return []fig1Job{
		{11, "user1", 1.62, false, true},
		{1, "user1", 1.97, false, false},
		{2, "user3", 1.32, false, false},
		{3, "user1", 2.27, false, false},
		{4, "user1", 2.36, false, false},
		{5, "user3", 1.17, false, false},
		{6, "user2", 0.66, true, false},
		{7, "user1", 1.73, false, false},
		{8, "user1", 1.44, false, false},
		{9, "user1", 1.39, false, false},
		{10, "user1", 1.39, false, false},
	}
}

// RunFig1 regenerates Figure 1: a tiptop snapshot of a data-center node.
// Eleven jobs start on the bi-Xeon E5640 node, the machine warms up,
// and one refresh of the default screen is rendered in the paper's
// layout (PID, USER, %CPU, Mcycle, Minst, IPC, DMIS, COMMAND), sorted by
// %CPU.
func RunFig1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig1", "Figure 1: snapshot of processes on a data-center node")

	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		return nil, err
	}
	for _, j := range fig1Roster() {
		job := tiptop.SyntheticJob{Name: fmt.Sprintf("process%d", j.n), IPC: j.ipc}
		if j.mem {
			job.MemRefsPKI, job.HotMB, job.WarmMB = 300, 1, 30
		}
		if j.duty {
			// The 43.7 % process alternates compute and I/O.
			job.Duty = 0.437
		}
		sc.SetSeed(cfg.Seed + int64(j.n-1))
		if _, err := sc.StartSyntheticJob(j.user, job); err != nil {
			return nil, err
		}
	}

	// Let the caches warm up.
	sc.Advance(30 * time.Second)

	r, err := monitor(sc, tiptop.Config{Interval: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	defer r.close()
	sample, err := r.d.Refresh()
	if err != nil {
		return nil, err
	}

	table := &Table{
		Title:  "tiptop snapshot of node42 (refresh 10 s)",
		Header: []string{"PID", "USER", "%CPU", "Mcycle", "Minst", "IPC", "DMIS", "COMMAND"},
	}
	for i := range sample.Rows {
		row := &sample.Rows[i]
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(row.PID),
			row.User,
			fmt.Sprintf("%.1f", row.CPUPct),
			fmt.Sprintf("%.0f", row.Columns[0]),
			fmt.Sprintf("%.0f", row.Columns[1]),
			fmt.Sprintf("%.2f", row.Columns[2]),
			fmt.Sprintf("%.1f", row.Columns[3]),
			row.Command,
		})
		res.Metrics["ipc_"+row.Command] = row.Columns[2]
		res.Metrics["cpu_"+row.Command] = row.CPUPct
		res.Metrics["dmis_"+row.Command] = row.Columns[3]
	}
	res.Tables = append(res.Tables, table)
	res.Metrics["rows"] = float64(len(sample.Rows))

	res.notef("paper: 11 processes of 3 users, IPC between 0.66 and 2.36, one job at 43.7%% CPU, DMIS 0.9 for the memory-bound job")
	res.notef("measured: %d rows; process1 IPC %.2f (paper 1.97); process6 IPC %.2f DMIS %.1f (paper 0.66/0.9); process11 %%CPU %.1f (paper 43.7)",
		len(sample.Rows), res.Metrics["ipc_process1"], res.Metrics["ipc_process6"],
		res.Metrics["dmis_process6"], res.Metrics["cpu_process11"])
	return res, nil
}

// RunFig10 regenerates Figure 10, the §3.4 process-conflict study: user1
// has two long-running jobs; user2 submits five jobs that run for a
// while and leave. During the overlap, the IPC of user1's jobs drops by
// roughly 20 % through shared-L3 contention — while every job's %CPU
// stays pinned above 99 %.
func RunFig10(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig10", "Figure 10: load on one node of the data center")

	// Time layout, scaled. At full scale the paper's window is ~1000
	// ten-second ticks with a ~230-tick overlap.
	tick := 10 * time.Second
	warmTicks := intScale(200, cfg.Scale, 12)
	overlapTicks := intScale(230, cfg.Scale, 15)
	tailTicks := intScale(150, cfg.Scale, 10)
	totalTicks := warmTicks + overlapTicks + tailTicks

	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		return nil, err
	}
	// The scheduler spreads user1's two jobs across the node's sockets
	// (one per 12 MB L3), so their pre-overlap IPC equals the solo
	// calibration: the paper's 1.3 and 1.0. MidProb 0.98 keeps their
	// contention-sensitive band at the ~20% the paper's drop implies.
	sc.SetSeed(cfg.Seed)
	for _, job := range []tiptop.SyntheticJob{
		{Name: "u1job1", IPC: 1.30, MemRefsPKI: 300, HotMB: 1.5, WarmMB: 10, MidProb: 0.98, Noise: 0.02},
		{Name: "u1job2", IPC: 1.00, MemRefsPKI: 330, HotMB: 2, WarmMB: 12, MidProb: 0.98, Noise: 0.02},
	} {
		if _, err := sc.StartSyntheticJob("user1", job); err != nil {
			return nil, err
		}
	}

	// Refresh i reads the tick that ends at (i+1)*tick: the attach pass
	// is refresh 0.
	sc.Advance(tick)
	r, err := monitor(sc, tiptop.Config{Interval: tick})
	if err != nil {
		return nil, err
	}
	defer r.close()
	// user2's five memory-hungry jobs arrive after the warm window and
	// leave when the overlap ends.
	var user2 []int
	for i := 1; i < totalTicks; i++ {
		switch i {
		case warmTicks:
			sc.SetSeed(cfg.Seed + 100)
			for j := 1; j <= 5; j++ {
				pid, err := sc.StartSyntheticJob("user2", tiptop.SyntheticJob{
					Name: fmt.Sprintf("u2job%d", j), IPC: 0.68,
					MemRefsPKI: 340, HotMB: 2, WarmMB: 24,
				})
				if err != nil {
					return nil, err
				}
				user2 = append(user2, pid)
			}
		case warmTicks + overlapTicks:
			for _, pid := range user2 {
				if err := sc.Kill(pid); err != nil {
					return nil, err
				}
			}
		}
		if _, err := r.d.Refresh(); err != nil {
			return nil, err
		}
	}

	read, err := r.series("ratio(INSTRUCTIONS, CYCLES)", "CPU_PCT")
	if err != nil {
		return nil, err
	}
	series := read[0]
	plot := trace.NewPlot("Figure 10: IPC of the jobs on one node", "time (10s/tick)", "IPC")
	for _, name := range slices.Sorted(maps.Keys(series)) {
		plot.Series = append(plot.Series, series[name])
	}
	res.Plots = append(res.Plots, plot)
	// The %CPU invariant is tracked on the always-running user1 jobs.
	minCPU := 200.0
	for _, name := range []string{"u1job1", "u1job2"} {
		for _, p := range read[1][name].Points {
			if p.X > 1 {
				minCPU = min(minCPU, p.Y)
			}
		}
	}

	// Quantify the conflict: user1's IPC before vs during the overlap.
	before := func(name string) float64 {
		return series[name].WindowMeanY(2, float64(warmTicks))
	}
	during := func(name string) float64 {
		return series[name].WindowMeanY(float64(warmTicks+2), float64(warmTicks+overlapTicks))
	}
	after := func(name string) float64 {
		return series[name].WindowMeanY(float64(warmTicks+overlapTicks+3), float64(totalTicks))
	}
	for _, name := range []string{"u1job1", "u1job2"} {
		b, d, a := before(name), during(name), after(name)
		res.Metrics["before_"+name] = b
		res.Metrics["during_"+name] = d
		res.Metrics["after_"+name] = a
		if b > 0 {
			res.Metrics["drop_pct_"+name] = 100 * (b - d) / b
		}
	}
	res.Metrics["min_cpu_pct"] = minCPU
	res.Metrics["u2_mean_ipc"] = series["u2job1"].MeanY()

	res.notef("paper: user1's jobs drop from 1.3 to 1.05 and 1.0 to 0.8 (~20%%) while user2's five jobs run; CPU usage stays above 99.3%% throughout")
	res.notef("measured: u1job1 %.2f -> %.2f (drop %.0f%%), u1job2 %.2f -> %.2f (drop %.0f%%), recovery to %.2f/%.2f; min %%CPU %.1f",
		res.Metrics["before_u1job1"], res.Metrics["during_u1job1"], res.Metrics["drop_pct_u1job1"],
		res.Metrics["before_u1job2"], res.Metrics["during_u1job2"], res.Metrics["drop_pct_u1job2"],
		res.Metrics["after_u1job1"], res.Metrics["after_u1job2"], minCPU)
	return res, nil
}

// intScale scales a full-size tick count, with a floor keeping the
// windows meaningful at tiny test scales.
func intScale(full int, scale float64, floor int) int {
	n := int(float64(full) * scale)
	if n < floor {
		n = floor
	}
	return n
}

package experiments

import (
	"fmt"
	"time"

	"tiptop/internal/grid"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/workload"
	"tiptop/internal/trace"
	"tiptop/internal/ui"
)

// fig1Jobs is the anonymized process roster of Figure 1: eleven
// processes of three users on a 16-logical-core bi-Xeon E5640, with the
// IPC values the paper's snapshot displays. process6 is the one
// memory-bound job (DMIS 0.9); process11 runs at 43.7 % CPU.
type fig1Job struct {
	comm string
	user string
	ipc  float64
	mem  bool // memory-hungry (visible DMIS)
	duty bool // partially idle (the 43.7 % process)
}

func fig1Roster() []fig1Job {
	return []fig1Job{
		{"process1", "user1", 1.97, false, false},
		{"process2", "user3", 1.32, false, false},
		{"process3", "user1", 2.27, false, false},
		{"process4", "user1", 2.36, false, false},
		{"process5", "user3", 1.17, false, false},
		{"process6", "user2", 0.66, true, false},
		{"process7", "user1", 1.73, false, false},
		{"process8", "user1", 1.44, false, false},
		{"process9", "user1", 1.39, false, false},
		{"process10", "user1", 1.39, false, false},
		{"process11", "user1", 1.62, false, true},
	}
}

func fig1Runner(j fig1Job, seed int64) (workload.Runner, error) {
	spec := workload.SyntheticSpec{Name: j.comm, IPC: j.ipc}
	if j.mem {
		spec.MemRefsPKI = 300
		spec.HotBytes = 1 << 20
		spec.WarmBytes = 30 << 20
	}
	return workload.NewSpin(workload.Synthetic(spec), seed)
}

// RunFig1 regenerates Figure 1: a tiptop snapshot of a data-center node.
// Eleven grid jobs are dispatched onto the bi-Xeon E5640 node, the
// machine warms up, and one refresh of the default screen is rendered in
// the paper's layout (PID, USER, %CPU, Mcycle, Minst, IPC, DMIS,
// COMMAND), sorted by %CPU.
func RunFig1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := newResult("fig1", "Figure 1: snapshot of processes on a data-center node")

	node := &grid.Node{Name: "node42", Kernel: newKernel(machine.XeonE5640x2(), cfg)}
	cluster, err := grid.NewCluster(node)
	if err != nil {
		return nil, err
	}
	if err := cluster.AddQueue(grid.Queue{Name: "batch", Priority: 1}); err != nil {
		return nil, err
	}
	for i, j := range fig1Roster() {
		r, err := fig1Runner(j, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		spec := grid.JobSpec{User: j.user, Name: j.comm, Queue: "batch", Runner: r}
		if j.duty {
			// The 43.7 % process alternates compute and I/O; model
			// it by spawning with a duty cycle directly on the node.
			task, err := node.Kernel.SpawnDuty(j.user, j.comm, r, nil,
				437*time.Millisecond, time.Second)
			if err != nil {
				return nil, err
			}
			_ = task
			continue
		}
		if _, err := cluster.Submit(spec); err != nil {
			return nil, err
		}
	}

	// Let the dispatcher place everything and the caches warm up.
	cluster.Advance(30 * time.Second)

	s, err := simSession(node.Kernel, metrics.DefaultScreen(), 10*time.Second, "cpu")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.Update(); err != nil { // attach pass
		return nil, err
	}
	s.AdvanceClock()
	sample, err := s.Update()
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
			fmt.Sprint(row.Info.ID.PID),
			row.Info.User,
			fmt.Sprintf("%.1f", row.CPUPct),
			fmt.Sprintf("%.0f", row.Values[0]),
			fmt.Sprintf("%.0f", row.Values[1]),
			fmt.Sprintf("%.2f", row.Values[2]),
			fmt.Sprintf("%.1f", row.Values[3]),
			row.Info.Comm,
		})
		res.Metrics["ipc_"+row.Info.Comm] = row.Values[2]
		res.Metrics["cpu_"+row.Info.Comm] = row.CPUPct
		res.Metrics["dmis_"+row.Info.Comm] = row.Values[3]
	}
	res.Tables = append(res.Tables, table)
	res.Metrics["rows"] = float64(len(sample.Rows))

	// Also keep the batch rendering for the tool's output files.
	var sb renderBuffer
	br := &ui.BatchRenderer{W: &sb, Timestamps: true}
	if err := br.Render(s.Screen(), sample); err != nil {
		return nil, err
	}
	res.notef("paper: 11 processes of 3 users, IPC between 0.66 and 2.36, one job at 43.7%% CPU, DMIS 0.9 for the memory-bound job")
	res.notef("measured: %d rows; process1 IPC %.2f (paper 1.97); process6 IPC %.2f DMIS %.1f (paper 0.66/0.9); process11 %%CPU %.1f (paper 43.7)",
		len(sample.Rows), res.Metrics["ipc_process1"], res.Metrics["ipc_process6"],
		res.Metrics["dmis_process6"], res.Metrics["cpu_process11"])
	return res, nil
}

// renderBuffer is a minimal strings.Builder clone implementing io.Writer
// without importing strings in this file's hot path.
type renderBuffer struct{ buf []byte }

func (b *renderBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *renderBuffer) String() string { return string(b.buf) }

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

	node := &grid.Node{Name: "node7", Kernel: newKernel(machine.XeonE5640x2(), cfg)}
	cluster, err := grid.NewCluster(node)
	if err != nil {
		return nil, err
	}
	if err := cluster.AddQueue(grid.Queue{Name: "batch", Priority: 1}); err != nil {
		return nil, err
	}

	// The scheduler spreads user1's two jobs across the node's sockets
	// (one per 12 MB L3), so their pre-overlap IPC equals the solo
	// calibration: the paper's 1.3 and 1.0. MidProb 0.98 keeps their
	// contention-sensitive band at the ~20%% the paper's drop implies.
	user1Jobs := []workload.SyntheticSpec{
		{Name: "u1job1", IPC: 1.30, MemRefsPKI: 300, HotBytes: 1.5 * (1 << 20), WarmBytes: 10 << 20, MidProb: 0.98, Noise: 0.02},
		{Name: "u1job2", IPC: 1.00, MemRefsPKI: 330, HotBytes: 2 << 20, WarmBytes: 12 << 20, MidProb: 0.98, Noise: 0.02},
	}
	for i, spec := range user1Jobs {
		r, err := workload.NewSpin(workload.Synthetic(spec), cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if _, err := cluster.Submit(grid.JobSpec{User: "user1", Name: spec.Name, Queue: "batch", Runner: r}); err != nil {
			return nil, err
		}
	}
	// user2's five memory-hungry jobs arrive after the warm window and
	// run for the overlap duration.
	overlapStart := time.Duration(warmTicks) * tick
	overlapLen := time.Duration(overlapTicks) * tick
	for i := 0; i < 5; i++ {
		w := workload.Synthetic(workload.SyntheticSpec{
			Name: fmt.Sprintf("u2job%d", i+1), IPC: 0.68,
			MemRefsPKI: 340, HotBytes: 2 << 20, WarmBytes: 24 << 20, Noise: 0.03,
		})
		// Size the job to last roughly the overlap window.
		instr := 0.68 * node.Kernel.Machine().FreqHz * overlapLen.Seconds()
		w = workload.Scaled(w, instr/float64(w.TotalInstructions()))
		r := workload.MustInstance(w, cfg.Seed+int64(100+i))
		if _, err := cluster.Submit(grid.JobSpec{
			User: "user2", Name: w.Name, Queue: "batch", Runner: r,
			SubmitAt: overlapStart,
		}); err != nil {
			return nil, err
		}
	}

	s, err := simSession(node.Kernel, metrics.DefaultScreen(), tick, "cpu")
	if err != nil {
		return nil, err
	}
	defer s.Close()

	plot := trace.NewPlot("Figure 10: IPC of the jobs on one node", "time (10s/tick)", "IPC")
	series := map[string]*trace.Series{}
	minCPU := 200.0
	for i := 0; i < totalTicks; i++ {
		cluster.Advance(tick)
		sample, err := s.Update()
		if err != nil {
			return nil, err
		}
		for r := range sample.Rows {
			row := &sample.Rows[r]
			if !row.Valid || row.IPC() == 0 {
				continue
			}
			sr := series[row.Info.Comm]
			if sr == nil {
				sr = plot.NewSeries(row.Info.Comm)
				series[row.Info.Comm] = sr
			}
			sr.Add(float64(i), row.IPC())
			// The %CPU invariant is tracked on the always-running
			// user1 jobs; a finishing u2 job legitimately shows a
			// partial final interval, exactly as top would.
			if i > 1 && row.CPUPct < minCPU && (row.Info.Comm == "u1job1" || row.Info.Comm == "u1job2") {
				minCPU = row.CPUPct
			}
		}
	}
	res.Plots = append(res.Plots, plot)

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

package sched

import (
	"math"
	"testing"
	"time"

	"tiptop/internal/sim/cpu"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/workload"
)

// burnWorkload returns a CPU-bound workload of roughly the given duration
// on the W3550 at the given solo IPC.
func burnWorkload(t *testing.T, name string, seconds float64) *workload.Workload {
	t.Helper()
	w := workload.Synthetic(workload.SyntheticSpec{Name: name, IPC: 1.5})
	// Synthetic builds a 600 s phase; scale it.
	return workload.Scaled(w, seconds/600)
}

func newKernel(t *testing.T, m *machine.Machine, opt Options) *Kernel {
	t.Helper()
	k, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKernelBasics(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	if k.Now() != 0 {
		t.Fatal("fresh kernel at time 0")
	}
	w := burnWorkload(t, "job", 1)
	task := k.Spawn("alice", "job", workload.MustInstance(w, 1), nil)
	if task.User() != "alice" || task.Comm() != "job" {
		t.Fatal("task identity")
	}
	if !task.ID().IsProcess() {
		t.Fatal("spawned task is a process leader")
	}
	if _, ok := k.Task(task.ID().PID); !ok {
		t.Fatal("task lookup by pid")
	}
	if _, ok := k.Task(99999); ok {
		t.Fatal("phantom task")
	}
	k.Advance(100 * time.Millisecond)
	if k.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v", k.Now())
	}
	if task.CPUTime() == 0 {
		t.Fatal("task should have accumulated CPU time")
	}
	if task.Totals().Instructions == 0 {
		t.Fatal("task should have retired instructions")
	}
}

func TestSoloTaskGetsFullCPU(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "solo", 10)
	task := k.Spawn("u", "solo", workload.MustInstance(w, 1), nil)
	k.Advance(2 * time.Second)
	// A single CPU-bound task on an idle machine gets ~100 % CPU.
	pct := float64(task.CPUTime()) / float64(2*time.Second) * 100
	if pct < 99 {
		t.Fatalf("%%CPU = %.1f, want ~100", pct)
	}
}

func TestTaskCompletionAndExit(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "short", 0.05)
	task := k.Spawn("u", "short", workload.MustInstance(w, 1), nil)
	k.Advance(2 * time.Second)
	if task.State() != TaskExited {
		t.Fatalf("state = %v, want exited", task.State())
	}
	if task.ExitTime() == 0 || task.ExitTime() > 2*time.Second {
		t.Fatalf("exit time = %v", task.ExitTime())
	}
	// Exited tasks stop accumulating.
	before := task.CPUTime()
	k.Advance(time.Second)
	if task.CPUTime() != before {
		t.Fatal("zombie must not accumulate CPU time")
	}
}

func TestTimesharingFairness(t *testing.T) {
	// 2 CPU-bound tasks on a 1-core machine share ~50/50.
	m := machine.PPC970() // 2 cores, no SMT
	k := newKernel(t, m, Options{})
	w := burnWorkload(t, "burn", 100)
	t1 := k.Spawn("u", "a", workload.MustInstance(w, 1), machine.MaskOf(0))
	t2 := k.Spawn("u", "b", workload.MustInstance(w, 2), machine.MaskOf(0))
	t3 := k.Spawn("u", "c", workload.MustInstance(w, 3), machine.MaskOf(0))
	k.Advance(3 * time.Second)
	total := 3.0
	for _, task := range []*Task{t1, t2, t3} {
		share := task.CPUTime().Seconds() / total
		if math.Abs(share-1.0/3) > 0.05 {
			t.Fatalf("task %s share = %.2f, want ~0.33", task.Comm(), share)
		}
	}
	if k.TotalContextSwitches() == 0 {
		t.Fatal("timesharing must context switch")
	}
}

func TestAffinityRespected(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "pin", 100)
	task := k.Spawn("u", "pin", workload.MustInstance(w, 1), machine.MaskOf(3))
	k.Advance(500 * time.Millisecond)
	if task.LastCPU() != 3 {
		t.Fatalf("pinned task ran on CPU %d, want 3", task.LastCPU())
	}
}

func TestPlacementPrefersIdleCores(t *testing.T) {
	// On the W3550 (4 cores x 2 threads), two unpinned tasks must land
	// on distinct physical cores, not on SMT siblings.
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "j", 100)
	t1 := k.Spawn("u", "a", workload.MustInstance(w, 1), nil)
	t2 := k.Spawn("u", "b", workload.MustInstance(w, 2), nil)
	k.Advance(200 * time.Millisecond)
	m := k.Machine()
	if m.Core(t1.LastCPU()) == m.Core(t2.LastCPU()) {
		t.Fatalf("two tasks share core %d with idle cores available", m.Core(t1.LastCPU()))
	}
}

func TestStickyPlacement(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "j", 100)
	task := k.Spawn("u", "a", workload.MustInstance(w, 1), nil)
	k.Advance(100 * time.Millisecond)
	first := task.LastCPU()
	k.Advance(500 * time.Millisecond)
	if task.LastCPU() != first {
		t.Fatalf("solo task migrated from %d to %d", first, task.LastCPU())
	}
	// A lone sticky task also never context switches after the first.
	if task.ContextSwitches() != 1 {
		t.Fatalf("ctx switches = %d, want 1", task.ContextSwitches())
	}
}

func TestDutyCycleCPUPercent(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "interactive", 1000)
	task, err := k.SpawnDuty("u", "interactive", workload.MustInstance(w, 1), nil,
		440*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	k.Advance(10 * time.Second)
	pct := float64(task.CPUTime()) / float64(10*time.Second) * 100
	// The Figure 1 node has a 43.7 % process; duty cycling reproduces it.
	if math.Abs(pct-44) > 3 {
		t.Fatalf("duty-cycled %%CPU = %.1f, want ~44", pct)
	}
}

func TestSpawnDutyValidation(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "x", 1)
	if _, err := k.SpawnDuty("u", "x", workload.MustInstance(w, 1), nil, 0, time.Second); err == nil {
		t.Fatal("zero on-time must fail")
	}
	if _, err := k.SpawnDuty("u", "x", workload.MustInstance(w, 1), nil, 2*time.Second, time.Second); err == nil {
		t.Fatal("on > period must fail")
	}
}

func TestKill(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "victim", 100)
	task := k.Spawn("u", "victim", workload.MustInstance(w, 1), nil)
	k.Advance(50 * time.Millisecond)
	if err := k.Kill(task.ID().PID); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskExited {
		t.Fatal("killed task must be exited")
	}
	if err := k.Kill(12345); err == nil {
		t.Fatal("killing unknown pid must fail")
	}
}

// sinkRecorder records per-quantum deltas.
type sinkRecorder struct {
	total cpu.Delta
	ranNS uint64
	calls int
}

func (s *sinkRecorder) OnQuantum(d cpu.Delta, ranNS uint64) {
	s.total.Add(d)
	s.ranNS += ranNS
	s.calls++
}

func TestSinkReceivesOnlyPostAttachEvents(t *testing.T) {
	k := newKernel(t, machine.XeonW3550(), Options{})
	w := burnWorkload(t, "obs", 100)
	task := k.Spawn("u", "obs", workload.MustInstance(w, 1), nil)
	k.Advance(time.Second)
	preAttach := task.Totals().Instructions
	if preAttach == 0 {
		t.Fatal("task must have run before attach")
	}
	sink := &sinkRecorder{}
	task.AttachSink(sink)
	if !task.Monitored() {
		t.Fatal("Monitored after attach")
	}
	k.Advance(time.Second)
	post := task.Totals().Instructions - preAttach
	if sink.total.Instructions != post {
		t.Fatalf("sink saw %d instructions, task executed %d after attach",
			sink.total.Instructions, post)
	}
	task.DetachSink(sink)
	if task.Monitored() {
		t.Fatal("detach failed")
	}
	before := sink.calls
	k.Advance(100 * time.Millisecond)
	if sink.calls != before {
		t.Fatal("detached sink must not be called")
	}
}

func TestMonitorSwitchOverheadSlowsMonitoredTask(t *testing.T) {
	// Two tasks timeshare one CPU; monitoring one of them charges the
	// counter save/restore cost at every switch, measurably slowing it.
	run := func(monitor bool) uint64 {
		m := machine.PPC970()
		k := newKernel(t, m, Options{MonitorSwitchCycles: 500_000})
		w := burnWorkload(t, "x", 100)
		a := k.Spawn("u", "a", workload.MustInstance(w, 1), machine.MaskOf(0))
		b := k.Spawn("u", "b", workload.MustInstance(w, 2), machine.MaskOf(0))
		_ = b
		if monitor {
			a.AttachSink(&sinkRecorder{})
		}
		k.Advance(2 * time.Second)
		return a.Totals().Instructions
	}
	plain := run(false)
	monitored := run(true)
	if monitored >= plain {
		t.Fatalf("monitored task retired %d >= unmonitored %d", monitored, plain)
	}
	// The overhead must stay small (paper: 0.7 % on SPEC).
	drop := float64(plain-monitored) / float64(plain)
	if drop > 0.10 {
		t.Fatalf("monitoring overhead %.1f%% implausibly large", drop*100)
	}
}

func TestSMTCoResidencySlowdown(t *testing.T) {
	// Two tasks pinned to SMT siblings of core 0 (CPUs 0 and 4 on the
	// W3550) run slower than on separate cores — §3.4's same-core case.
	m := machine.XeonW3550()
	run := func(cpuB machine.CPUID) uint64 {
		k := newKernel(t, m, Options{})
		w := workload.MCF()
		a := k.Spawn("u", "mcf", workload.MustInstance(w, 1), machine.MaskOf(0))
		k.Spawn("u", "mcf2", workload.MustInstance(w, 2), machine.MaskOf(cpuB))
		// Run deep into the memory-bound simplex phases; the first
		// 25 s are a cache-friendly init phase that barely contends.
		k.Advance(150 * time.Second)
		return a.Totals().Instructions
	}
	separate := run(1) // different physical core
	sameCore := run(4) // SMT sibling
	if sameCore >= separate {
		t.Fatalf("same-core run retired %d >= separate-core %d", sameCore, separate)
	}
	slowdown := float64(separate) / float64(sameCore)
	if slowdown < 1.3 || slowdown > 3.0 {
		t.Fatalf("same-core slowdown = %.2fx, want roughly 2x (paper Fig 11d)", slowdown)
	}
}

func TestSharedLLCContention(t *testing.T) {
	// Three mcf copies on distinct cores slow each other via the shared
	// L3 even though every core is otherwise idle (paper Fig 11a).
	m := machine.XeonW3550()
	ipcOf := func(copies int) float64 {
		k := newKernel(t, m, Options{})
		var first *Task
		for i := 0; i < copies; i++ {
			task := k.Spawn("u", "mcf", workload.MustInstance(workload.MCF(), int64(i+1)),
				machine.MaskOf(machine.CPUID(i)))
			if i == 0 {
				first = task
			}
		}
		k.Advance(150 * time.Second)
		tot := first.Totals()
		return float64(tot.Instructions) / float64(tot.Cycles)
	}
	one := ipcOf(1)
	three := ipcOf(3)
	if three >= one {
		t.Fatalf("3-copy IPC %.3f must be below solo %.3f", three, one)
	}
	slowdown := 1 - three/one
	if slowdown < 0.05 || slowdown > 0.45 {
		t.Fatalf("3-copy slowdown = %.0f%%, paper reports up to 30%%", slowdown*100)
	}
	// CPU usage stays ~100 % in all cases: the whole point of §3.4.
	k := newKernel(t, m, Options{})
	tasks := make([]*Task, 3)
	for i := range tasks {
		tasks[i] = k.Spawn("u", "mcf", workload.MustInstance(workload.MCF(), int64(i+1)),
			machine.MaskOf(machine.CPUID(i)))
	}
	k.Advance(2 * time.Second)
	for _, task := range tasks {
		pct := float64(task.CPUTime()) / float64(2*time.Second) * 100
		if pct < 99 {
			t.Fatalf("contended task %%CPU = %.1f, must stay ~100", pct)
		}
	}
}

func TestQuantumClamp(t *testing.T) {
	// Advancing by a non-multiple of the quantum still lands exactly.
	k := newKernel(t, machine.XeonW3550(), Options{})
	k.Advance(25 * time.Millisecond)
	if k.Now() != 25*time.Millisecond {
		t.Fatalf("Now = %v", k.Now())
	}
}

func TestInvalidMachineRejected(t *testing.T) {
	bad := *machine.XeonW3550()
	bad.Sockets = 0
	if _, err := New(&bad, Options{}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	run := func() (uint64, uint64) {
		k := newKernel(t, machine.XeonW3550(), Options{})
		a := k.Spawn("u", "a", workload.MustInstance(workload.MCF(), 1), nil)
		b := k.Spawn("u", "b", workload.MustInstance(workload.Astar(), 2), nil)
		k.Advance(3 * time.Second)
		return a.Totals().Cycles, b.Totals().Cycles
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("simulation not deterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

// Package sched simulates the operating-system kernel of the machine
// simulator: per-quantum scheduling of tasks onto logical CPUs with
// affinity and load balancing, CPU-time accounting (the %CPU column),
// context-switch counting, duty-cycled (interactive) tasks, and the
// per-quantum computation of shared-cache contention contexts that feed
// the core timing model. It also delivers per-quantum event deltas to
// attached sinks — the virtual PMU — including the cost of saving and
// restoring counters at context switches (paper §2.5).
package sched

import (
	"fmt"
	"sort"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/sim/cache"
	"tiptop/internal/sim/cpu"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/workload"
)

// TaskState is the lifecycle state of a simulated task.
type TaskState int

const (
	// TaskRunnable tasks compete for CPUs.
	TaskRunnable TaskState = iota
	// TaskSleeping tasks are in the off part of their duty cycle.
	TaskSleeping
	// TaskExited tasks have finished. They stay in Kernel.Tasks, but
	// the process table no longer lists them; a monitor's counters
	// stay readable, so its next refresh takes the final reading.
	TaskExited
)

func (s TaskState) String() string {
	switch s {
	case TaskRunnable:
		return "R"
	case TaskSleeping:
		return "S"
	case TaskExited:
		return "Z"
	}
	return "?"
}

// EventSink receives the architectural events of one task, quantum by
// quantum. The virtual PMU implements it.
type EventSink interface {
	// OnQuantum is called after the task ran for ranNS of simulated
	// time and produced delta.
	OnQuantum(delta cpu.Delta, ranNS uint64)
}

// Task is one simulated process (single-threaded; the thread/process
// distinction is carried by TaskID for the monitoring layer).
type Task struct {
	id       hpm.TaskID
	user     string
	comm     string
	runner   workload.Runner
	affinity machine.AffinityMask

	state     TaskState
	startNS   uint64
	exitNS    uint64
	cpuTimeNS uint64
	vruntime  uint64
	lastCPU   machine.CPUID
	hasRun    bool

	// Duty cycle: the task is runnable only during the first dutyOnNS
	// of every dutyPeriodNS window. Zero period means always runnable.
	dutyOnNS, dutyPeriodNS uint64

	// Contention bookkeeping: observed insertion rates (refs/sec) into
	// the shared levels during the previous quantum the task ran.
	l2RefRate  float64
	llcRefRate float64

	totals cpu.Delta
	sinks  []EventSink

	ctxSwitches uint64
}

// ID returns the task identifier.
func (t *Task) ID() hpm.TaskID { return t.id }

// User returns the owning user name.
func (t *Task) User() string { return t.user }

// Comm returns the command name.
func (t *Task) Comm() string { return t.comm }

// State returns the current lifecycle state.
func (t *Task) State() TaskState { return t.state }

// CPUTime returns the accumulated on-CPU time.
func (t *Task) CPUTime() time.Duration { return time.Duration(t.cpuTimeNS) }

// StartTime returns the simulated time the task was spawned.
func (t *Task) StartTime() time.Duration { return time.Duration(t.startNS) }

// ExitTime returns when the task exited (zero if still alive).
func (t *Task) ExitTime() time.Duration { return time.Duration(t.exitNS) }

// LastCPU returns the logical CPU the task last ran on.
func (t *Task) LastCPU() machine.CPUID { return t.lastCPU }

// Totals returns the task's cumulative architectural events.
func (t *Task) Totals() cpu.Delta { return t.totals }

// ContextSwitches returns how many times the task was switched in on a
// CPU that previously ran a different task.
func (t *Task) ContextSwitches() uint64 { return t.ctxSwitches }

// AttachSink registers an event sink (a PMU monitor). Counting starts
// with the next quantum, which is the perf_event attach semantics the
// paper relies on: "only events that occur after the start of tiptop are
// observed".
func (t *Task) AttachSink(s EventSink) { t.sinks = append(t.sinks, s) }

// DetachSink removes a previously attached sink.
func (t *Task) DetachSink(s EventSink) {
	for i, cur := range t.sinks {
		if cur == s {
			t.sinks = append(t.sinks[:i], t.sinks[i+1:]...)
			return
		}
	}
}

// Monitored reports whether any sink is attached.
func (t *Task) Monitored() bool { return len(t.sinks) > 0 }

// timeslice is the scheduling quantum.
const timeslice = 10 * time.Millisecond

// Options configure a Kernel.
type Options struct {
	// MonitorSwitchCycles is the cost, in cycles, of saving and
	// restoring the performance counters of a monitored task at each
	// context switch ("the impact is limited to the cost of saving a
	// few counters at context switches", §2.5). Charged only to
	// monitored tasks.
	MonitorSwitchCycles uint64
	// DisableCacheSharing turns off the shared-cache contention model:
	// every task sees full cache capacities regardless of co-runners.
	// Used by the ablation study — with it set, the paper's §3.4
	// effects vanish entirely.
	DisableCacheSharing bool
}

// Kernel is the simulated operating system plus hardware clock.
type Kernel struct {
	mach    *machine.Machine
	opt     Options
	nowNS   uint64
	nextPID int
	tasks   []*Task
	byTID   map[int]*Task
	// lastOnCPU tracks which task ran most recently on each logical
	// CPU, for context-switch detection and affinity.
	lastOnCPU []*Task

	// System-wide counting state: per-CPU event aggregation for the
	// pid=-1,cpu=N attach scope, indexed by logical CPU.
	cpuSinks  [][]EventSink
	cpuBusyNS []uint64

	totalSwitches uint64
}

// New creates a kernel for the given machine.
func New(m *machine.Machine, opt Options) (*Kernel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Kernel{
		mach:      m,
		opt:       opt,
		nextPID:   100,
		byTID:     make(map[int]*Task),
		lastOnCPU: make([]*Task, m.NumLogical()),
		cpuSinks:  make([][]EventSink, m.NumLogical()),
		cpuBusyNS: make([]uint64, m.NumLogical()),
	}, nil
}

// Machine returns the hardware description.
func (k *Kernel) Machine() *machine.Machine { return k.mach }

// Now returns the simulated wall-clock time.
func (k *Kernel) Now() time.Duration { return time.Duration(k.nowNS) }

// TotalContextSwitches returns the machine-wide context switch count.
func (k *Kernel) TotalContextSwitches() uint64 { return k.totalSwitches }

// AttachCPUSink registers a sink receiving every quantum executed on one
// logical CPU regardless of task — the system-wide (pid=-1, cpu=N)
// counting scope. Counting starts with the next quantum.
func (k *Kernel) AttachCPUSink(cpu machine.CPUID, s EventSink) error {
	if int(cpu) < 0 || int(cpu) >= len(k.cpuSinks) {
		return fmt.Errorf("sched: no such cpu %d", cpu)
	}
	k.cpuSinks[cpu] = append(k.cpuSinks[cpu], s)
	return nil
}

// DetachCPUSink removes a previously attached per-CPU sink.
func (k *Kernel) DetachCPUSink(cpu machine.CPUID, s EventSink) {
	if int(cpu) < 0 || int(cpu) >= len(k.cpuSinks) {
		return
	}
	sinks := k.cpuSinks[cpu]
	for i, cur := range sinks {
		if cur == s {
			k.cpuSinks[cpu] = append(sinks[:i], sinks[i+1:]...)
			return
		}
	}
}

// CPUBusy returns the accumulated busy (non-idle) time of a logical CPU.
func (k *Kernel) CPUBusy(cpu machine.CPUID) time.Duration {
	if int(cpu) < 0 || int(cpu) >= len(k.cpuBusyNS) {
		return 0
	}
	return time.Duration(k.cpuBusyNS[cpu])
}

// Spawn creates a runnable task executing r.
func (k *Kernel) Spawn(user, comm string, r workload.Runner, aff machine.AffinityMask) *Task {
	pid := k.nextPID
	k.nextPID++
	t := &Task{
		id:       hpm.TaskID{PID: pid, TID: pid},
		user:     user,
		comm:     comm,
		runner:   r,
		affinity: aff,
		startNS:  k.nowNS,
		lastCPU:  -1,
	}
	k.tasks = append(k.tasks, t)
	k.byTID[pid] = t
	return t
}

// SpawnThread adds a thread to an existing process: a schedulable task
// sharing the leader's PID, user and command but with its own TID,
// runner and affinity. The paper's §2.2 per-thread/per-process counting
// distinction only matters for such thread groups.
func (k *Kernel) SpawnThread(leader *Task, r workload.Runner, aff machine.AffinityMask) (*Task, error) {
	if leader == nil || !leader.id.IsProcess() {
		return nil, fmt.Errorf("sched: SpawnThread needs a thread-group leader")
	}
	if leader.state == TaskExited {
		return nil, fmt.Errorf("sched: leader %d has exited", leader.id.PID)
	}
	tid := k.nextPID
	k.nextPID++
	t := &Task{
		id:       hpm.TaskID{PID: leader.id.PID, TID: tid},
		user:     leader.user,
		comm:     leader.comm,
		runner:   r,
		affinity: aff,
		startNS:  k.nowNS,
		lastCPU:  -1,
	}
	k.tasks = append(k.tasks, t)
	k.byTID[tid] = t
	return t, nil
}

// ThreadGroup returns all tasks of a process (the leader and its
// threads), in spawn order.
func (k *Kernel) ThreadGroup(pid int) []*Task {
	var out []*Task
	for _, t := range k.tasks {
		if t.id.PID == pid {
			out = append(out, t)
		}
	}
	return out
}

// SpawnDuty creates a task that is runnable only during the first `on`
// of every `period` (an interactive or I/O-bound job, such as the 43.7 %
// process in Figure 1).
func (k *Kernel) SpawnDuty(user, comm string, r workload.Runner, aff machine.AffinityMask, on, period time.Duration) (*Task, error) {
	if on <= 0 || period <= 0 || on > period {
		return nil, fmt.Errorf("sched: invalid duty cycle %v/%v", on, period)
	}
	t := k.Spawn(user, comm, r, aff)
	t.dutyOnNS = uint64(on)
	t.dutyPeriodNS = uint64(period)
	return t, nil
}

// Kill marks a task exited immediately.
func (k *Kernel) Kill(pid int) error {
	t, ok := k.byTID[pid]
	if !ok {
		return fmt.Errorf("sched: no task %d", pid)
	}
	if t.state != TaskExited {
		t.state = TaskExited
		t.exitNS = k.nowNS
	}
	return nil
}

// Task returns the task with the given PID.
func (k *Kernel) Task(pid int) (*Task, bool) {
	t, ok := k.byTID[pid]
	return t, ok
}

// Tasks returns all tasks (including exited ones), in spawn order. The
// returned slice must not be modified.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// dutyRunnable reports whether a duty-cycled task is in its on-window.
func (t *Task) dutyRunnable(nowNS uint64) bool {
	if t.dutyPeriodNS == 0 {
		return true
	}
	return (nowNS-t.startNS)%t.dutyPeriodNS < t.dutyOnNS
}

// Advance runs the simulation forward by d, quantum by quantum.
func (k *Kernel) Advance(d time.Duration) {
	end := k.nowNS + uint64(d)
	for k.nowNS < end {
		step := uint64(timeslice)
		if rem := end - k.nowNS; rem < step {
			step = rem
		}
		k.quantum(step)
		k.nowNS += step
	}
}

// Page-fault model parameters: a task faults its working set in on
// first execution and then takes a demand-paging fault for a fixed
// fraction of its DRAM accesses (file-backed reads, copy-on-write).
const (
	initialPageFaults   = 64
	pageFaultPerLLCMiss = 64
)

// assignment maps logical CPUs to the task chosen for the quantum.
type assignment struct {
	cpu  machine.CPUID
	task *Task
}

// quantum executes one scheduling timeslice of length nsec.
func (k *Kernel) quantum(nsec uint64) {
	runnable := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		if t.state == TaskExited {
			continue
		}
		if t.dutyRunnable(k.nowNS) {
			t.state = TaskRunnable
			runnable = append(runnable, t)
		} else {
			t.state = TaskSleeping
		}
	}
	if len(runnable) == 0 {
		return
	}
	assignments := k.place(runnable)
	if len(assignments) == 0 {
		return
	}
	contexts := k.buildContexts(assignments)

	budget := uint64(float64(nsec) / 1e9 * k.mach.FreqHz)
	if budget == 0 {
		budget = 1
	}
	for i, a := range assignments {
		t := a.task
		// Context switch detection and counter save/restore cost.
		taskBudget := budget
		switched := k.lastOnCPU[a.cpu] != t
		if switched {
			k.totalSwitches++
			t.ctxSwitches++
			if t.Monitored() && k.opt.MonitorSwitchCycles > 0 {
				if k.opt.MonitorSwitchCycles < taskBudget {
					taskBudget -= k.opt.MonitorSwitchCycles
				} else {
					taskBudget = 1
				}
			}
		}
		migrated := t.hasRun && t.lastCPU != a.cpu
		firstRun := !t.hasRun
		k.lastOnCPU[a.cpu] = t

		delta := t.runner.Exec(contexts[i], taskBudget)
		// Software events are scheduling-level, not pipeline-level, so
		// the kernel injects them into the quantum's delta: one context
		// switch when a different task was switched in, one migration
		// when the task moved between CPUs, and page faults modelled as
		// the initial working-set fault-in plus a demand-paging trickle
		// proportional to DRAM traffic.
		if switched {
			delta.CtxSwitches++
		}
		if migrated {
			delta.CPUMigrations++
		}
		delta.PageFaults += delta.LLCMisses / pageFaultPerLLCMiss
		if firstRun {
			delta.PageFaults += initialPageFaults
		}
		usedNS := uint64(float64(delta.Cycles) / k.mach.FreqHz * 1e9)
		if usedNS > nsec {
			usedNS = nsec
		}
		t.cpuTimeNS += usedNS
		t.vruntime += usedNS
		t.lastCPU = a.cpu
		t.hasRun = true
		t.totals.Add(delta)
		k.cpuBusyNS[a.cpu] += usedNS

		// Update observed insertion rates for next quantum's
		// contention partition.
		if usedNS > 0 {
			sec := float64(usedNS) / 1e9
			t.l2RefRate = float64(delta.L1Misses) / sec
			t.llcRefRate = float64(delta.LLCRefs) / sec
		}
		for _, s := range t.sinks {
			s.OnQuantum(delta, usedNS)
		}
		for _, s := range k.cpuSinks[a.cpu] {
			s.OnQuantum(delta, usedNS)
		}
		if t.runner.Done() {
			t.state = TaskExited
			t.exitNS = k.nowNS + usedNS
		}
	}
}

// place chooses which tasks run this quantum and on which CPUs. Policy:
// lowest-vruntime tasks first (CFS-like fairness); each task prefers its
// previous CPU, then an idle physical core, then an idle SMT thread —
// the "place on the least loaded core" behaviour the paper attributes to
// the Linux scheduler.
func (k *Kernel) place(runnable []*Task) []assignment {
	sort.SliceStable(runnable, func(i, j int) bool {
		if runnable[i].vruntime != runnable[j].vruntime {
			return runnable[i].vruntime < runnable[j].vruntime
		}
		return runnable[i].id.PID < runnable[j].id.PID
	})

	n := k.mach.NumLogical()
	taken := make([]bool, n)
	var out []assignment

	coreBusy := func(cpu machine.CPUID) bool {
		for _, sib := range k.mach.Siblings(cpu) {
			if taken[sib] {
				return true
			}
		}
		return false
	}
	socketLoad := func(cpu machine.CPUID) int {
		sock := k.mach.Socket(cpu)
		load := 0
		for c := 0; c < n; c++ {
			if taken[c] && k.mach.Socket(machine.CPUID(c)) == sock {
				load++
			}
		}
		return load
	}
	pick := func(t *Task) (machine.CPUID, bool) {
		// 1. Sticky: previous CPU if free and allowed.
		if t.lastCPU >= 0 && !taken[t.lastCPU] && t.affinity.Allows(t.lastCPU) {
			return t.lastCPU, true
		}
		// 2. A free CPU on an entirely idle physical core, preferring
		// the least-loaded socket (Linux spreads across packages to
		// maximize cache and memory bandwidth per task).
		best, bestLoad := machine.CPUID(-1), 1<<30
		for c := 0; c < n; c++ {
			cpu := machine.CPUID(c)
			if !taken[c] && t.affinity.Allows(cpu) && !coreBusy(cpu) {
				if load := socketLoad(cpu); load < bestLoad {
					best, bestLoad = cpu, load
				}
			}
		}
		if best >= 0 {
			return best, true
		}
		// 3. Any free CPU.
		for c := 0; c < n; c++ {
			cpu := machine.CPUID(c)
			if !taken[c] && t.affinity.Allows(cpu) {
				return cpu, true
			}
		}
		return 0, false
	}

	for _, t := range runnable {
		if len(out) == n {
			break
		}
		cpu, ok := pick(t)
		if !ok {
			continue
		}
		taken[cpu] = true
		out = append(out, assignment{cpu: cpu, task: t})
	}
	return out
}

// buildContexts computes the per-task execution context for the quantum:
// effective L2 and LLC capacities from the contention model, halved L1
// when the SMT sibling is busy.
func (k *Kernel) buildContexts(assignments []assignment) []cpu.Context {
	m := k.mach
	base := cpu.DefaultContext(m)
	out := make([]cpu.Context, len(assignments))

	// Group assignment indexes by cache-sharing domain.
	l2cache, hasL2 := m.CacheAt(2)
	llc := m.LLC()
	l2Groups := map[int][]int{}
	llcGroups := map[int][]int{}
	for i, a := range assignments {
		if hasL2 {
			l2Groups[m.DomainOf(a.cpu, l2cache.Shared)] = append(l2Groups[m.DomainOf(a.cpu, l2cache.Shared)], i)
		}
		llcGroups[m.DomainOf(a.cpu, llc.Shared)] = append(llcGroups[m.DomainOf(a.cpu, llc.Shared)], i)
	}

	l2Share := make([]float64, len(assignments))
	llcShare := make([]float64, len(assignments))
	for i := range assignments {
		l2Share[i] = base.L2Bytes
		llcShare[i] = base.LLCBytes
	}
	partition := func(groups map[int][]int, capacity float64, rate func(*Task) float64, profileOf func(*Task) cache.ReuseProfile, into []float64) {
		for _, idxs := range groups {
			if len(idxs) <= 1 {
				continue
			}
			sharers := make([]cache.Sharer, len(idxs))
			for j, idx := range idxs {
				t := assignments[idx].task
				r := rate(t)
				if r <= 0 {
					r = 1 // cold start: equal pressure
				}
				sharers[j] = cache.Sharer{RefRate: r, Profile: profileOf(t)}
			}
			shares := cache.ShareCapacity(capacity, sharers)
			for j, idx := range idxs {
				into[idx] = shares[j]
			}
		}
	}
	profile := func(t *Task) cache.ReuseProfile {
		if p, ok := t.runner.(interface{ Reuse() cache.ReuseProfile }); ok {
			return p.Reuse()
		}
		// Without a declared profile, assume a moderate footprint so
		// the partition still reacts to reference rates.
		return cache.UniformProfile(base.LLCBytes, 0.02)
	}
	if !k.opt.DisableCacheSharing {
		if hasL2 && l2cache.Shared != machine.SharedPerThread {
			partition(l2Groups, float64(l2cache.SizeBytes), func(t *Task) float64 { return t.l2RefRate }, profile, l2Share)
		}
		partition(llcGroups, float64(llc.SizeBytes), func(t *Task) float64 { return t.llcRefRate }, profile, llcShare)
	}

	// SMT sibling busy?
	busy := map[machine.CPUID]bool{}
	for _, a := range assignments {
		busy[a.cpu] = true
	}
	for i, a := range assignments {
		ctx := base
		ctx.L2Bytes = l2Share[i]
		ctx.LLCBytes = llcShare[i]
		for _, sib := range m.Siblings(a.cpu) {
			if sib != a.cpu && busy[sib] {
				ctx.SMTBusy = true
				ctx.L1Bytes = base.L1Bytes / 2
			}
		}
		out[i] = ctx
	}
	return out
}

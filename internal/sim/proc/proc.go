// Package proc adapts the simulated kernel to the tiptop engine: it
// implements core.ProcSource (the simulated machine's /proc) and
// core.Clock (the simulated wall clock), so the very same engine that
// monitors real Linux processes can monitor the simulation.
package proc

import (
	"fmt"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/sched"
)

// Source is the simulated process table.
type Source struct {
	k *sched.Kernel
	// PerThread lists one entry per thread instead of one per process
	// (paper §2.2). In process mode, a multi-threaded process shows
	// the summed CPU time of its group.
	PerThread bool
	// SystemWide replaces the task list with one row per logical CPU
	// (IDs hpm.CPUTask(n)): attaching counters to those rows counts
	// everything that runs on each CPU, the perf "-a" mode. PerThread
	// is ignored in this mode.
	SystemWide bool

	// Scratch reused across snapshots, so a refresh over thousands of
	// tasks costs O(1) allocations in steady state.
	buf      []core.TaskInfo
	cpuByPID map[int]time.Duration
}

var _ core.ProcSource = (*Source)(nil)

// NewSource creates a process source over the kernel.
func NewSource(k *sched.Kernel) *Source { return &Source{k: k} }

// Snapshot implements core.ProcSource. The returned slice is reused by
// the next Snapshot call; callers must not retain it across refreshes
// (the engine copies what it keeps).
func (s *Source) Snapshot() ([]core.TaskInfo, error) {
	if s.SystemWide {
		return s.cpuSnapshot()
	}
	tasks := s.k.Tasks()
	out := s.buf[:0]
	if s.cpuByPID == nil {
		s.cpuByPID = make(map[int]time.Duration, len(tasks))
	}
	cpuByPID := s.cpuByPID
	clear(cpuByPID)
	if !s.PerThread {
		for _, t := range tasks {
			cpuByPID[t.ID().PID] += t.CPUTime()
		}
	}
	for _, t := range tasks {
		if t.State() == sched.TaskExited {
			continue // gone from the table; the engine reads it once more, into its exit row
		}
		if !s.PerThread && !t.ID().IsProcess() {
			continue // threads fold into their leader
		}
		info := core.TaskInfo{
			ID:        t.ID(),
			User:      t.User(),
			Comm:      t.Comm(),
			State:     t.State().String(),
			CPUTime:   t.CPUTime(),
			StartTime: t.StartTime(),
			LastCPU:   int(t.LastCPU()),
		}
		if !s.PerThread {
			// Process mode: group-scope counting (the whole thread
			// group's events and CPU time fold into one row).
			info.ID = info.ID.Group()
			info.CPUTime = cpuByPID[t.ID().PID]
		}
		out = append(out, info)
	}
	s.buf = out
	return out, nil
}

// cpuSnapshot lists one pseudo-task per logical CPU. CPUTime is the
// CPU's cumulative busy time, so the engine's %CPU column becomes
// per-CPU utilization; StartTime stays 0 (a CPU exists since boot).
func (s *Source) cpuSnapshot() ([]core.TaskInfo, error) {
	n := s.k.Machine().NumLogical()
	out := s.buf[:0]
	for i := 0; i < n; i++ {
		out = append(out, core.TaskInfo{
			ID:      hpm.CPUTask(i),
			User:    "system",
			Comm:    fmt.Sprintf("cpu%d", i),
			State:   "R",
			CPUTime: s.k.CPUBusy(machine.CPUID(i)),
			LastCPU: i,
		})
	}
	s.buf = out
	return out, nil
}

// Clock drives the simulation from the engine's refresh loop.
type Clock struct {
	k *sched.Kernel
}

var _ core.Clock = (*Clock)(nil)

// NewClock creates a simulated clock bound to the kernel.
func NewClock(k *sched.Kernel) *Clock { return &Clock{k: k} }

// Now implements core.Clock.
func (c *Clock) Now() time.Duration { return c.k.Now() }

// Advance implements core.Clock by running the simulation forward.
func (c *Clock) Advance(d time.Duration) { c.k.Advance(d) }

// Package hpm defines the hardware-performance-monitoring abstraction that
// the tiptop engine is written against. Two backends implement it:
//
//   - internal/perfevent wraps the Linux perf_event_open(2) system call and
//     counts events on real hardware (paper §2.3);
//   - internal/sim/pmu exposes the simulated machine's virtual PMU, used to
//     regenerate the paper's experiments deterministically.
//
// The interface mirrors the perf_event semantics the paper relies on: a
// counter is attached to an already-running task at an arbitrary point in
// time, counts only events that occur after the attach, survives context
// switches, and is read periodically by the monitoring process.
package hpm

import (
	"errors"
	"fmt"
)

// Errors shared by backends.
var (
	// ErrUnsupportedEvent is returned when the backend (or underlying
	// hardware) cannot count the requested event.
	ErrUnsupportedEvent = errors.New("hpm: unsupported event")
	// ErrNoSuchTask is returned when attaching to a task that does not
	// exist (any more).
	ErrNoSuchTask = errors.New("hpm: no such task")
	// ErrPermission is returned when the backend exists but the caller
	// may not monitor the target task (paper footnote 1: non-privileged
	// users can only watch processes they own).
	ErrPermission = errors.New("hpm: permission denied")
	// ErrUnavailable is returned by Probe when the backend cannot work
	// at all in this environment (e.g. perf_event_open masked by a
	// container seccomp policy).
	ErrUnavailable = errors.New("hpm: backend unavailable")
)

// TaskID identifies a monitorable entity: a single kernel task (thread),
// or — with TID zero — a whole thread group. The paper's tool can count
// per thread or per process (§2.2 "Events can be counted per thread, or
// per process"); the group scope corresponds to perf_event's inherit
// counting.
type TaskID struct {
	PID int // process (thread group) id
	TID int // thread id; equal to PID for the main thread, 0 for group scope
}

// CPUTask returns the ID addressing system-wide counting on one logical
// CPU (perf_event's pid=-1, cpu=N scope). CPU scopes are encoded as
// negative PIDs so they flow through every PID-keyed layer above the
// backend — history series, the durable store, the wire format, the
// query engine — without any of them learning a new key type.
func CPUTask(cpu int) TaskID { return TaskID{PID: -(cpu + 1), TID: -(cpu + 1)} }

// IsCPU reports whether the ID addresses a logical CPU rather than a
// task (system-wide counting scope).
func (t TaskID) IsCPU() bool { return t.PID < 0 }

// CPU returns the logical CPU index of a CPU-scope ID.
func (t TaskID) CPU() int { return -t.PID - 1 }

// IsProcess reports whether the task is a thread-group leader.
func (t TaskID) IsProcess() bool { return t.PID == t.TID }

// IsGroup reports whether the ID addresses the whole thread group
// (process-scope counting) rather than one task.
func (t TaskID) IsGroup() bool { return t.TID == 0 }

// Group returns the group-scope ID for the same process.
func (t TaskID) Group() TaskID { return TaskID{PID: t.PID} }

func (t TaskID) String() string {
	if t.IsCPU() {
		return fmt.Sprintf("cpu %d (system-wide)", t.CPU())
	}
	if t.IsGroup() {
		return fmt.Sprintf("pid %d (group)", t.PID)
	}
	if t.IsProcess() {
		return fmt.Sprintf("pid %d", t.PID)
	}
	return fmt.Sprintf("pid %d/tid %d", t.PID, t.TID)
}

// Count is one counter reading. Enabled and Running carry the
// time-multiplexing information perf_event exposes via
// PERF_FORMAT_TOTAL_TIME_{ENABLED,RUNNING}: when the PMU has fewer
// hardware counters than requested events the kernel time-slices them and
// the raw value must be scaled by Enabled/Running.
type Count struct {
	Raw     uint64 // raw counter value since attach
	Enabled uint64 // ns the event was enabled
	Running uint64 // ns the event was actually counting
}

// Scaled returns the multiplex-corrected estimate of the count. When the
// event ran whenever it was enabled the raw value is returned unchanged.
func (c Count) Scaled() uint64 {
	if c.Running == 0 {
		return 0
	}
	if c.Running >= c.Enabled {
		return c.Raw
	}
	return uint64(float64(c.Raw) * float64(c.Enabled) / float64(c.Running))
}

// Exact reports whether the count needed no multiplex scaling.
func (c Count) Exact() bool { return c.Running >= c.Enabled }

// TaskCounter is a set of counters attached to one task. It is the
// file-descriptor analogue: Close must be called to release it.
//
// Read may be called concurrently with Read on *other* TaskCounters of
// the same backend (the engine itself samples every task from one
// goroutine; other callers need not); calls on one TaskCounter are never
// concurrent with each other or with its Close.
type TaskCounter interface {
	// Task returns the task the counters are attached to.
	Task() TaskID
	// Read returns the current value of every attached event, in the
	// order the events were given at attach time.
	Read() ([]Count, error)
	// Close detaches and releases the counters.
	Close() error
}

// CountReader is an optional TaskCounter extension for allocation-free
// sampling: ReadInto writes the current counts into dst (grown as
// needed) and returns the filled slice. The engine double-buffers the
// destination, so a steady-state refresh performs no per-read
// allocation. The concurrency contract matches TaskCounter.Read.
type CountReader interface {
	ReadInto(dst []Count) ([]Count, error)
}

// Gate is an optional TaskCounter extension for counters that can be
// paused without being released (PERF_EVENT_IOC_DISABLE/ENABLE): a
// disabled counter keeps its descriptors but advances neither Raw,
// Enabled nor Running, and resumes from where it stopped. A counter is
// enabled when Attach returns it. internal/mux rotates through it — all
// rotation groups stay open, one is enabled — instead of closing and
// re-attaching a group per refresh. Gate calls are like Read: never
// concurrent with another call on the same counter, free to overlap
// with anything on other counters (including Attach and Close).
type Gate interface {
	Enable() error
	Disable() error
}

// Backend creates counters. The engine (internal/core) calls a backend
// and its counters from one goroutine, the one running a refresh; the
// contract is wider than that caller, for those that are not: Attach and
// TaskCounter.Close are serialized by the caller (one call at a time
// per backend), so implementations need not support two of either
// running concurrently. They MUST however tolerate TaskCounter.Read
// (and Gate calls, where offered) on distinct counters running
// concurrently — with each other and with an in-flight Attach or Close
// on a *different* counter. In practice: Attach/Close may not mutate
// state that Read on other counters consults without synchronizing it.
type Backend interface {
	// Name returns a short human-readable backend name ("perf_event",
	// "sim").
	Name() string
	// Probe reports whether the backend can be used at all, returning
	// ErrUnavailable (possibly wrapped) when it cannot.
	Probe() error
	// Supported reports whether the backend can count the described
	// event. Support is negotiated per descriptor: generic events are
	// portable, raw and hw-cache encodings depend on the backend and
	// the machine model behind it.
	Supported(e EventDesc) bool
	// Attach opens counters for the events on the given task. Counting
	// starts at the time of the call: events that happened before are
	// not observed (paper §2.2).
	Attach(task TaskID, events []EventDesc) (TaskCounter, error)
	// Capacity returns how many hardware counter slots one attach can
	// occupy before events must be time-multiplexed: the number of PMU
	// counting registers (e.g. 4 on a Cortex-A7). Zero means unlimited
	// or unknown — the caller attaches everything at once and relies on
	// Enabled/Running for any kernel-side multiplexing.
	Capacity() int
	// SlotCost returns how many counter slots the event occupies: 1 for
	// an ordinary hardware event, 0 for events counted outside the PMU
	// (software events, fixed counters), which never need multiplexing.
	SlotCost(e EventDesc) int
}

// DeltasInto computes per-event deltas between two readings taken from
// the same TaskCounter. Each delta is the interval's raw increment scaled by
// the interval's own Enabled/Running ratio — the multiplex correction is
// applied to the refresh window itself, not by differencing cumulative
// Scaled() estimates. Differencing cumulative estimates is subtly wrong
// under counter rotation: the cumulative Enabled/Running ratio
// oscillates with the rotation phase, so the estimate of the *total* can
// legitimately revise downward between reads, and clamping those
// revisions to zero rectifies the oscillation into counts that never
// happened. Interval scaling has no such phase: a window in which the
// event counted the whole time contributes its raw increment exactly,
// and a window in which it counted part of the time is extrapolated by
// that window's coverage alone. A negative delta (counter re-created,
// task died and pid reused) is clamped to zero: the tool displays
// occurrences since the previous refresh and must never show garbage.
//
// The deltas are written into dst, which is grown as needed and
// returned: the sampling engine calls this once per task per refresh,
// and the reusable destination keeps the per-tick garbage independent
// of the number of monitored tasks.
func DeltasInto(dst []uint64, prev, cur []Count) []uint64 {
	if cap(dst) < len(cur) {
		dst = make([]uint64, len(cur))
	}
	dst = dst[:len(cur)]
	n := len(cur)
	if len(prev) < n {
		n = len(prev)
	}
	for i := 0; i < n; i++ {
		dst[i] = intervalDelta(prev[i], cur[i])
	}
	for i := n; i < len(cur); i++ {
		// Event appended since the previous read: its whole reading is
		// the interval.
		dst[i] = intervalDelta(Count{}, cur[i])
	}
	return dst
}

// intervalDelta extrapolates one event's increment over a read interval
// by the interval's own coverage.
func intervalDelta(p, c Count) uint64 {
	if c.Raw < p.Raw {
		return 0
	}
	dRaw := c.Raw - p.Raw
	var dEn, dRun uint64
	if c.Enabled > p.Enabled {
		dEn = c.Enabled - p.Enabled
	}
	if c.Running > p.Running {
		dRun = c.Running - p.Running
	}
	if dRun == 0 {
		if dEn > 0 {
			// Enabled but never scheduled onto a counter: nothing was
			// counted and there is no coverage to extrapolate from.
			return 0
		}
		// Backend without scheduling-time tracking: trust the raw
		// increment.
		return dRaw
	}
	if dRun >= dEn {
		return dRaw
	}
	return uint64(float64(dRaw) * float64(dEn) / float64(dRun))
}

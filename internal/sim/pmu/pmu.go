// Package pmu implements the simulated machine's performance monitoring
// unit as an hpm.Backend. It mirrors the perf_event semantics the paper
// builds on:
//
//   - counters attach to already-running tasks and count only events that
//     occur afterwards (§2.2);
//   - counter state is private to the monitored task and survives context
//     switches (§2.5);
//   - the hardware supports a limited number of simultaneous events
//     (sixteen on the Xeon W3550, §2.6); requests beyond the limit are
//     time-multiplexed, and reads report TIME_ENABLED/TIME_RUNNING so the
//     client can scale the raw value, exactly like PERF_FORMAT_TOTAL_TIME_*.
package pmu

import (
	"fmt"
	"sync/atomic"

	"tiptop/internal/hpm"
	"tiptop/internal/sim/cpu"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/sched"
)

// Backend is the simulated-PMU implementation of hpm.Backend. It is
// bound to one kernel; monitoring any user's process is always permitted
// (the simulator has no notion of the caller's uid, matching tiptop run
// by the owner of all displayed processes).
type Backend struct {
	k *sched.Kernel
	// Syscall equivalents: what internal/perfevent would ask of the
	// kernel for the same calls with a capacity configured (one fd per
	// event, one read(2) and one gate ioctl per counter, which is one
	// kernel group). Atomic because the hpm contract allows reads and
	// gate calls on distinct counters from several goroutines at once.
	opens, closes, reads, gates atomic.Int64
}

// Syscalls is a snapshot of the backend's syscall-equivalent tallies, so
// that the per-refresh budget of a monitor (no opens or closes in steady
// state, a fixed number of reads and gate ioctls per task) is asserted
// by tests on the simulator rather than only observed on hardware.
type Syscalls struct {
	Opens, Closes int64 // perf_event_open / close: one per event
	Reads, Gates  int64 // read(2) / PERF_EVENT_IOC_{EN,DIS}ABLE: one per counter
}

// Syscalls returns the tallies since the backend was created.
func (b *Backend) Syscalls() Syscalls {
	return Syscalls{
		Opens: b.opens.Load(), Closes: b.closes.Load(),
		Reads: b.reads.Load(), Gates: b.gates.Load(),
	}
}

var _ hpm.Backend = (*Backend)(nil)

// New creates a backend for the kernel.
func New(k *sched.Kernel) *Backend { return &Backend{k: k} }

// Name implements hpm.Backend.
func (b *Backend) Name() string { return "sim" }

// Probe implements hpm.Backend; the simulated PMU is always available.
func (b *Backend) Probe() error { return nil }

// resolve maps an event descriptor to the architectural count source
// the simulated machine produces for it ("" when the machine cannot
// count the event). Resolution goes by the perf *encoding*, exactly
// what real hardware sees — so a user-defined alias of a built-in
// event (same attr.Type/attr.Config under a new name) counts
// identically:
//
//   - PERF_TYPE_HARDWARE configs resolve to the generic counts;
//   - PERF_TYPE_RAW codes go through the machine model's decode table
//     (machine.Machine.RawEvents), the way hardware decodes an
//     event-select/umask pair — a machine without an entry cannot
//     count the code (the PPC970 has no FP-assist mechanism at all,
//     §3.1);
//   - PERF_TYPE_HW_CACHE encodings resolve the L1D and LLC events the
//     cache model simulates.
func (b *Backend) resolve(e hpm.EventDesc) string {
	if !e.Valid() {
		return ""
	}
	switch e.Type {
	case hpm.PerfTypeHardware:
		return genericSource(e.Config)
	case hpm.PerfTypeSoftware:
		return softwareSource(e.Config)
	case hpm.PerfTypeRaw:
		if src, ok := b.k.Machine().RawEventSource(e.Config); ok && cpu.KnownSource(src) {
			return src
		}
	case hpm.PerfTypeHWCache:
		return hwCacheSource(e.Config)
	}
	return ""
}

// softwareSource decodes a PERF_TYPE_SOFTWARE config into the
// kernel-counted source it names. Software events exist on every
// machine model: they are produced by the simulated scheduler, not the
// PMU.
func softwareSource(config uint64) string {
	switch config {
	case hpm.SWPageFaults:
		return hpm.EventPageFaults
	case hpm.SWCtxSwitches:
		return hpm.EventCtxSwitches
	case hpm.SWCPUMigrations:
		return hpm.EventCPUMigrations
	}
	return ""
}

// genericSource decodes a PERF_TYPE_HARDWARE config into the generic
// count it names.
func genericSource(config uint64) string {
	switch config {
	case hpm.HWCPUCycles:
		return hpm.EventCycles
	case hpm.HWInstructions:
		return hpm.EventInstructions
	case hpm.HWCacheReferences:
		return hpm.EventCacheReferences
	case hpm.HWCacheMisses:
		return hpm.EventCacheMisses
	case hpm.HWBranchInstructions:
		return hpm.EventBranches
	case hpm.HWBranchMisses:
		return hpm.EventBranchMisses
	}
	return ""
}

// hwCacheSource decodes a PERF_TYPE_HW_CACHE config (cache-id | op<<8 |
// result<<16) into the count sources the cache model maintains.
func hwCacheSource(config uint64) string {
	id, op, res := config&0xff, (config>>8)&0xff, (config>>16)&0xff
	const (
		cacheL1D, cacheLL        = 0, 2
		opRead, opWrite          = 0, 1
		resultAccess, resultMiss = 0, 1
	)
	switch {
	case id == cacheL1D && op == opRead && res == resultAccess:
		return hpm.EventLoads
	case id == cacheL1D && op == opWrite && res == resultAccess:
		return hpm.EventStores
	case id == cacheL1D && (op == opRead || op == opWrite) && res == resultMiss:
		return cpu.SourceL1Misses
	case id == cacheLL && res == resultAccess:
		return hpm.EventCacheReferences
	case id == cacheLL && res == resultMiss:
		return hpm.EventCacheMisses
	}
	return ""
}

// Supported implements hpm.Backend by resolving the descriptor against
// the machine model.
func (b *Backend) Supported(e hpm.EventDesc) bool {
	return b.resolve(e) != ""
}

// Capacity implements hpm.Backend: the machine model's PMU register
// count bounds how many slot-costing events one attach can count at
// full coverage.
func (b *Backend) Capacity() int { return b.k.Machine().NumCounters }

// SlotCost implements hpm.Backend. Software events are counted by the
// simulated scheduler and fixed-counter events (the RISC-V
// cycle/instret CSRs) by dedicated hardware; neither occupies a
// programmable PMU register.
func (b *Backend) SlotCost(e hpm.EventDesc) int {
	if e.Type == hpm.PerfTypeSoftware {
		return 0
	}
	if src := b.resolve(e); src != "" && b.k.Machine().HasFixedCounter(src) {
		return 0
	}
	return 1
}

// Kernel returns the kernel the backend monitors.
func (b *Backend) Kernel() *sched.Kernel { return b.k }

// Attach implements hpm.Backend. A group-scope ID (TID zero) counts the
// whole process: the counter registers with every current thread of the
// group, the semantics of perf_event's inherit flag. A concrete TID
// counts that thread alone (paper §2.2: "Events can be counted per
// thread, or per process").
func (b *Backend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("pmu: no events requested: %w", hpm.ErrUnsupportedEvent)
	}
	sources := make([]string, len(events))
	c := &counter{
		backend: b,
		id:      task,
		sources: sources,
		counts:  make([]hpm.Count, len(events)),
		slots:   b.k.Machine().NumCounters,
	}
	for i, e := range events {
		src := b.resolve(e)
		if src == "" {
			return nil, fmt.Errorf("pmu: event %v: %w", e, hpm.ErrUnsupportedEvent)
		}
		sources[i] = src
		// Zero-cost events (software, fixed counters) count
		// continuously; only slot-costing events rotate.
		if b.SlotCost(e) == 0 {
			c.free = append(c.free, i)
		} else {
			c.costed = append(c.costed, i)
		}
	}
	if task.IsCPU() {
		// System-wide scope: count everything executed on one logical
		// CPU (perf_event's pid=-1, cpu=N).
		cpuID := machine.CPUID(task.CPU())
		if err := b.k.AttachCPUSink(cpuID, c); err != nil {
			return nil, fmt.Errorf("pmu: %v: %w", task, hpm.ErrNoSuchTask)
		}
		c.cpu = cpuID
		c.cpuScope = true
		b.opens.Add(int64(len(events)))
		return c, nil
	}
	var targets []*sched.Task
	if task.IsGroup() {
		targets = b.k.ThreadGroup(task.PID)
	} else if t, ok := b.k.Task(task.TID); ok && t.ID().PID == task.PID {
		targets = []*sched.Task{t}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("pmu: %v: %w", task, hpm.ErrNoSuchTask)
	}
	c.targets = targets
	for _, t := range targets {
		t.AttachSink(c)
	}
	b.opens.Add(int64(len(events)))
	return c, nil
}

// counter is a set of per-task event counters, possibly multiplexed.
// For process-level attachment it aggregates over every thread of the
// group (each thread's quantum feeds the same counters).
type counter struct {
	backend *Backend
	targets []*sched.Task
	id      hpm.TaskID
	// sources holds the resolved architectural count source of each
	// attached event, in attach order (the descriptor → source decode
	// happens once, at attach time).
	sources []string
	counts  []hpm.Count
	free    []int // indices of zero-cost events (always counting)
	costed  []int // indices of slot-costing events (rotated when needed)
	slots   int   // hardware counters available
	rot     int   // multiplex rotation cursor over costed
	closed  bool
	// disabled gates the whole counter (hpm.Gate): no event counts and
	// neither time advances until it is enabled again.
	disabled bool

	// CPU scope (system-wide counting on one logical CPU).
	cpuScope bool
	cpu      machine.CPUID
}

var _ hpm.TaskCounter = (*counter)(nil)
var _ hpm.CountReader = (*counter)(nil)
var _ hpm.Gate = (*counter)(nil)
var _ sched.EventSink = (*counter)(nil)

// Task implements hpm.TaskCounter.
func (c *counter) Task() hpm.TaskID { return c.id }

// OnQuantum implements sched.EventSink: it credits the quantum's events
// to the currently scheduled event group and rotates the group, the way
// the kernel rotates the active PMU set each timer tick when more events
// are requested than hardware counters exist.
func (c *counter) OnQuantum(d cpu.Delta, ranNS uint64) {
	if c.disabled {
		return
	}
	for i := range c.sources {
		c.counts[i].Enabled += ranNS
	}
	// Zero-cost events (software, fixed counters) never contend for a
	// PMU register: they count every quantum.
	for _, i := range c.free {
		c.counts[i].Raw += d.Count(c.sources[i])
		c.counts[i].Running += ranNS
	}
	n := len(c.costed)
	active := c.slots
	if active > n {
		active = n
	}
	for j := 0; j < active; j++ {
		i := c.costed[(c.rot+j)%n]
		c.counts[i].Raw += d.Count(c.sources[i])
		c.counts[i].Running += ranNS
	}
	if n > c.slots {
		c.rot = (c.rot + 1) % n
	}
}

// Read implements hpm.TaskCounter.
func (c *counter) Read() ([]hpm.Count, error) {
	return c.ReadInto(nil)
}

// ReadInto implements hpm.CountReader.
func (c *counter) ReadInto(dst []hpm.Count) ([]hpm.Count, error) {
	if c.closed {
		return nil, fmt.Errorf("pmu: read of closed counter for %v", c.id)
	}
	c.backend.reads.Add(1)
	return append(dst[:0], c.counts...), nil
}

// Enable implements hpm.Gate.
func (c *counter) Enable() error { return c.gate(false) }

// Disable implements hpm.Gate.
func (c *counter) Disable() error { return c.gate(true) }

func (c *counter) gate(disabled bool) error {
	if c.closed {
		return fmt.Errorf("pmu: counter for %v is closed", c.id)
	}
	c.backend.gates.Add(1)
	c.disabled = disabled
	return nil
}

// Close implements hpm.TaskCounter.
func (c *counter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.backend.closes.Add(int64(len(c.sources)))
	if c.cpuScope {
		c.backend.k.DetachCPUSink(c.cpu, c)
		return nil
	}
	for _, t := range c.targets {
		t.DetachSink(c)
	}
	return nil
}

// Package perfevent wraps the Linux perf_event_open(2) system call the
// paper's tool is built on (§2.3). It encodes the perf_event_attr
// structure by hand, opens one file descriptor per (task, event) exactly
// as tiptop does ("one per monitored process and per event of
// interest"), and reads counter values together with the
// TIME_ENABLED/TIME_RUNNING pair so multiplexed counts can be scaled.
// When the PMU's size is configured (SetCapacity) the hardware events of
// one Attach form one kernel group: co-scheduled, read with a single
// read(2) and gated with a single ioctl on the leader.
//
// No privilege is required to monitor one's own processes; monitoring
// other users' tasks requires perf_event_paranoid <= some threshold or
// CAP_PERFMON, which the backend surfaces as hpm.ErrPermission. In
// containers the syscall is frequently masked entirely; Probe detects
// that and reports hpm.ErrUnavailable so callers can fall back to the
// simulator backend.
package perfevent

import (
	"encoding/binary"
	"fmt"

	"tiptop/internal/hpm"
)

// read_format bits.
const (
	readFormatTotalTimeEnabled = 1 << 0
	readFormatTotalTimeRunning = 1 << 1
	readFormatGroup            = 1 << 3
)

const (
	// PERF_FLAG_FD_CLOEXEC, on every open: descriptors live as long as
	// their task is monitored and must not leak across an exec.
	openFlagCloexec = 1 << 3
	// PERF_IOC_FLAG_GROUP: the ioctl applies to the leader's whole group.
	iocFlagGroup = 1
)

// syscalls is the system-call surface a backend works through, a field
// so that tests can stand a scripted kernel in for the real one (which
// containers usually mask).
type syscalls struct {
	open  func(a *Attr, pid, cpu, groupFD int, flags uintptr) (int, error)
	read  func(fd int, buf []byte) (int, error)
	ioctl func(fd int, req, arg uintptr) error
	close func(fd int)
}

var kernel = syscalls{openSyscall, readFD, ioctlFD, closeFD}

// attr flag bits (bit offsets into the flags word).
const (
	flagInherit       = 1 << 1
	flagExcludeKernel = 1 << 5
	flagExcludeHV     = 1 << 6
)

// attrSize is PERF_ATTR_SIZE_VER5 (112 bytes), ABI-stable since Linux 4.1
// and accepted by every later kernel.
const attrSize = 112

// Attr is the subset of perf_event_attr the tool needs.
type Attr struct {
	Type   uint32
	Config uint64
	// ReadFormat selects what read(2) returns.
	ReadFormat uint64
	// Flags is the packed bitfield word (disabled, inherit, ...).
	Flags uint64
}

// Encode produces the binary perf_event_attr blob the kernel expects
// (little-endian, as on every Linux architecture Go supports).
func (a *Attr) Encode() []byte {
	buf := make([]byte, attrSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], a.Type)
	le.PutUint32(buf[4:], attrSize)      // size
	le.PutUint64(buf[8:], a.Config)      // config
	le.PutUint64(buf[16:], 0)            // sample_period
	le.PutUint64(buf[24:], 0)            // sample_type
	le.PutUint64(buf[32:], a.ReadFormat) // read_format
	le.PutUint64(buf[40:], a.Flags)      // bitfield word
	// Remaining fields stay zero.
	return buf
}

// attrFor builds the attribute block for an event descriptor: the
// encoding is carried by the descriptor itself, so this backend never
// needs editing to count a new event (raw codes and hw-cache events
// come straight from the registry or the XML configuration). Counters
// exclude kernel and hypervisor activity (the unprivileged
// configuration) and start enabled, since the engine reads deltas
// anyway.
func attrFor(e hpm.EventDesc) Attr {
	return Attr{
		Type:       e.Type,
		Config:     e.Config,
		ReadFormat: readFormatTotalTimeEnabled | readFormatTotalTimeRunning,
		Flags:      flagExcludeKernel | flagExcludeHV,
	}
}

// DecodeReading parses the 24-byte read(2) result produced with the
// TOTAL_TIME_ENABLED|TOTAL_TIME_RUNNING read format.
func DecodeReading(buf []byte) (hpm.Count, error) {
	if len(buf) < 24 {
		return hpm.Count{}, fmt.Errorf("perfevent: short read: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	return hpm.Count{
		Raw:     le.Uint64(buf[0:]),
		Enabled: le.Uint64(buf[8:]),
		Running: le.Uint64(buf[16:]),
	}, nil
}

// DecodeGroupReading parses a leader's read(2) result under
// PERF_FORMAT_GROUP|TOTAL_TIME_ENABLED|TOTAL_TIME_RUNNING — nr,
// time_enabled, time_running, then nr values in the order the members
// joined — into dst (grown as needed). A group is scheduled as a unit,
// so its members share its times. Bytes past the nr-th value are
// ignored; a buffer too short for the nr it announces is an error.
func DecodeGroupReading(buf []byte, dst []hpm.Count) ([]hpm.Count, error) {
	if len(buf) < 24 {
		return nil, fmt.Errorf("perfevent: short group read: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	nr := le.Uint64(buf[0:])
	if nr > uint64(len(buf)-24)/8 {
		return nil, fmt.Errorf("perfevent: group read of %d bytes announces %d values", len(buf), nr)
	}
	enabled, running := le.Uint64(buf[8:]), le.Uint64(buf[16:])
	dst = dst[:0]
	for i := 0; i < int(nr); i++ {
		dst = append(dst, hpm.Count{Raw: le.Uint64(buf[24+8*i:]), Enabled: enabled, Running: running})
	}
	return dst, nil
}

// Backend is the perf_event implementation of hpm.Backend.
type Backend struct {
	// enableRaw permits architecture-specific raw events. Off by
	// default: raw codes are only valid on the micro-architecture they
	// were taken from.
	enableRaw bool
	// capacity is the advertised PMU register count (see Capacity). 0
	// means unknown: attach everything and let the kernel multiplex.
	capacity int
	sys      *syscalls
}

var _ hpm.Backend = (*Backend)(nil)

// New creates a perf_event backend supporting the generic and hw-cache
// events.
func New() *Backend {
	return &Backend{sys: &kernel}
}

// NewWithRaw creates a backend that additionally accepts raw event
// descriptors (PERF_TYPE_RAW). The caller asserts that the codes in
// play were taken from this machine's micro-architecture manual.
func NewWithRaw() *Backend {
	return &Backend{enableRaw: true, sys: &kernel}
}

// SetCapacity declares how many hardware events the PMU can count
// simultaneously, enabling userland rotation (internal/mux) instead of
// kernel-side multiplexing. The kernel exposes no portable probe for
// this, so the limit is configuration: 0 (the default) keeps the
// classic behaviour — open every fd and scale by Enabled/Running.
func (b *Backend) SetCapacity(n int) {
	if n < 0 {
		n = 0
	}
	b.capacity = n
}

// Capacity implements hpm.Backend.
func (b *Backend) Capacity() int { return b.capacity }

// SlotCost implements hpm.Backend: software events are counted by the
// kernel, not the PMU, and never cost a counter register.
func (b *Backend) SlotCost(e hpm.EventDesc) int {
	if e.Type == hpm.PerfTypeSoftware {
		return 0
	}
	return 1
}

// Name implements hpm.Backend.
func (b *Backend) Name() string { return "perf_event" }

// Supported implements hpm.Backend: generic and hw-cache encodings are
// portable (the kernel rejects combinations the hardware lacks at open
// time, surfacing as a per-task attach failure); raw codes require the
// opt-in backend because they are only meaningful on the
// micro-architecture they were looked up for.
func (b *Backend) Supported(e hpm.EventDesc) bool {
	if !e.Valid() {
		return false
	}
	switch e.Kind {
	case hpm.KindGeneric, hpm.KindHWCache, hpm.KindSoftware:
		return true
	case hpm.KindRaw:
		return b.enableRaw
	}
	return false
}

// Probe implements hpm.Backend: it opens (and immediately closes) a
// cycles counter on the calling thread. Any failure is reported as
// hpm.ErrUnavailable with the underlying errno attached.
func (b *Backend) Probe() error {
	a := attrFor(hpm.EventDesc{Name: hpm.EventCycles, Type: hpm.PerfTypeHardware, Config: hpm.HWCPUCycles})
	fd, err := b.sys.open(&a, 0, -1, -1, openFlagCloexec) // pid 0 = calling task
	if err != nil {
		return fmt.Errorf("perfevent: probe: %v: %w", err, hpm.ErrUnavailable)
	}
	b.sys.close(fd)
	return nil
}

// Attach implements hpm.Backend.
func (b *Backend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("perfevent: no events: %w", hpm.ErrUnsupportedEvent)
	}
	hw := 0
	for _, e := range events {
		if !b.Supported(e) {
			return nil, fmt.Errorf("perfevent: %v: %w", e, hpm.ErrUnsupportedEvent)
		}
		hw += b.SlotCost(e)
	}
	// With a capacity configured the caller (internal/mux) keeps the
	// slot-costing events of one Attach within the PMU, so they open as
	// one kernel group: leader with group_fd = -1, members with the
	// leader's fd. With capacity 0 the PMU's size is unknown and the
	// kernel time-slices the events one by one; they must stay
	// ungrouped, because a group larger than the PMU is never scheduled.
	// Software events stay out either way (they cost no register), and
	// so does group scope: the kernel refuses PERF_FORMAT_GROUP on
	// inherited events.
	grouped := b.capacity > 0 && hw <= b.capacity && !task.IsGroup()

	// cpu = -1: count the task on every CPU it runs on (per-task
	// counting, exactly the paper's configuration: "We set cpu to -1 to
	// monitor events per task"). Group scope targets the leader with the
	// inherit flag, so threads spawned afterwards are counted too. A
	// CPU-scope ID inverts both: pid = -1, cpu = N counts everything
	// that runs on one logical CPU (system-wide mode; needs
	// perf_event_paranoid <= 0 or CAP_PERFMON).
	target, onCPU := task.TID, -1
	var inherit uint64
	if task.IsGroup() {
		target, inherit = task.PID, flagInherit
	}
	if task.IsCPU() {
		target, onCPU = -1, task.CPU()
	}
	c := &counter{sys: b.sys, task: task, events: events}
	for i, e := range events {
		a := attrFor(e)
		a.Flags |= inherit
		groupFD := -1
		if grouped && b.SlotCost(e) > 0 {
			a.ReadFormat |= readFormatGroup
			if len(c.members) > 0 {
				groupFD = c.fds[c.members[0]]
			}
			c.members = append(c.members, i)
		} else {
			c.solo = append(c.solo, i)
		}
		fd, err := b.sys.open(&a, target, onCPU, groupFD, openFlagCloexec)
		if err != nil {
			c.Close()
			return nil, mapOpenError(task, err)
		}
		c.fds = append(c.fds, fd)
	}
	if n := len(c.members); n > 0 {
		c.gbuf = make([]byte, 8*(3+n))
		c.gvals = make([]hpm.Count, 0, n)
	}
	return c, nil
}

// counter holds one fd per attached event.
type counter struct {
	sys    *syscalls
	task   hpm.TaskID
	events []hpm.EventDesc
	fds    []int
	// members are the event indices of the kernel group, leader first;
	// solo those of the events opened on their own (everything, when
	// ungrouped). gbuf and gvals are the group read's scratch.
	members, solo []int
	gbuf          []byte
	gvals         []hpm.Count
	closed        bool
}

var _ hpm.TaskCounter = (*counter)(nil)
var _ hpm.CountReader = (*counter)(nil)
var _ hpm.Gate = (*counter)(nil)

// Task implements hpm.TaskCounter.
func (c *counter) Task() hpm.TaskID { return c.task }

// Read implements hpm.TaskCounter.
func (c *counter) Read() ([]hpm.Count, error) {
	return c.ReadInto(nil)
}

// ReadInto implements hpm.CountReader: one read(2) on the leader for
// the whole kernel group, one per descriptor for the rest.
func (c *counter) ReadInto(dst []hpm.Count) ([]hpm.Count, error) {
	if c.closed {
		return nil, fmt.Errorf("perfevent: read of closed counter for %v", c.task)
	}
	if cap(dst) < len(c.fds) {
		dst = make([]hpm.Count, len(c.fds))
	}
	dst = dst[:len(c.fds)]
	if len(c.members) > 0 {
		lead := c.members[0]
		n, err := c.sys.read(c.fds[lead], c.gbuf)
		if err != nil {
			return nil, fmt.Errorf("perfevent: read group of %v fd %d: %w", c.events[lead], c.fds[lead], err)
		}
		vals, err := DecodeGroupReading(c.gbuf[:n], c.gvals)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(c.members) {
			return nil, fmt.Errorf("perfevent: group of %v holds %d events, read %d", c.events[lead], len(c.members), len(vals))
		}
		for j, i := range c.members {
			dst[i] = vals[j]
		}
	}
	var buf [24]byte
	for _, i := range c.solo {
		n, err := c.sys.read(c.fds[i], buf[:])
		if err != nil {
			return nil, fmt.Errorf("perfevent: read %v fd %d: %w", c.events[i], c.fds[i], err)
		}
		cnt, err := DecodeReading(buf[:n])
		if err != nil {
			return nil, err
		}
		dst[i] = cnt
	}
	return dst, nil
}

// Close implements hpm.TaskCounter.
func (c *counter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, fd := range c.fds {
		c.sys.close(fd)
	}
	c.fds = nil
	return nil
}

// gate applies a perf ioctl to the whole counter: once to the leader
// for its group (PERF_IOC_FLAG_GROUP), once to every other descriptor.
func (c *counter) gate(req uintptr) error {
	if c.closed {
		return fmt.Errorf("perfevent: counter for %v is closed", c.task)
	}
	if len(c.members) > 0 {
		lead := c.members[0]
		if err := c.sys.ioctl(c.fds[lead], req, iocFlagGroup); err != nil {
			return fmt.Errorf("perfevent: ioctl group of %v fd %d: %w", c.events[lead], c.fds[lead], err)
		}
	}
	for _, i := range c.solo {
		if err := c.sys.ioctl(c.fds[i], req, 0); err != nil {
			return fmt.Errorf("perfevent: ioctl %v fd %d: %w", c.events[i], c.fds[i], err)
		}
	}
	return nil
}

// Enable implements hpm.Gate (PERF_EVENT_IOC_ENABLE).
func (c *counter) Enable() error { return c.gate(ioctlEnable) }

// Disable implements hpm.Gate (PERF_EVENT_IOC_DISABLE).
func (c *counter) Disable() error { return c.gate(ioctlDisable) }

// Package mux implements userland counter scheduling: an hpm.Backend
// decorator that lets a screen request more events than the PMU has
// counting registers. Real PMUs are small — the ARM Cortex-A7 has four
// counting registers, the RISC-V U74 two programmable ones next to its
// fixed cycle/instret CSRs — while tiptop's default screen alone wants
// six hardware events.
//
// When the requested events fit the inner backend's advertised capacity
// (hpm.Backend.Capacity), Attach passes straight through. When they do
// not, the decorator partitions the slot-costing events into rotation
// groups of at most Capacity slots, keeps zero-cost events (software
// events, fixed counters) counting continuously, and round-robins one
// group per refresh: each Read harvests the counts of the group that
// was live since the previous Read, credits every rotated event with
// the elapsed enabled time, then makes the next group the live one.
//
// Every rotation group is opened once, at Attach, and rotation is
// gating (hpm.Gate): all groups stay open, one is enabled, and a Read
// costs two inner reads and two gate calls — no inner Attach or Close,
// hence no backend-wide lock (LIKWID's discipline: program the groups
// once, then only start, stop and read). The price is one
// descriptor per event rather than per live event. A task falls back
// to closing the live group and attaching the next on every Read,
// under the backend mutex, when its inner counters offer no hpm.Gate,
// its idle groups could not be opened (descriptor exhaustion degrades
// one task, it does not fail its attach) or a gate call fails later.
// Both modes share one accounting routine.
//
// The result is reported through the existing hpm.Count mechanism —
// Raw/Running grow only while an event's group is live, and the window
// time of idle turns is banked and credited to Enabled when the group is
// next harvested — so hpm.Count.Scaled() performs the same
// Raw*Enabled/Running extrapolation the kernel's own multiplexing
// relies on, and every layer above the backend (engine, history,
// store, query, wire) works unchanged. Crediting Enabled at harvest time
// rather than every refresh keeps each event's Raw, Enabled and Running
// advancing together, which makes the Scaled() totals monotonic across
// reads: crediting idle windows immediately would inflate the estimate
// between harvests and deflate it again at the next harvest, and the
// engine's clamped per-refresh deltas would rectify that oscillation
// into counts that never happened. The Running/Enabled ratio is the
// per-event coverage fraction the UI surfaces as %SMPL.
package mux

import (
	"fmt"
	"sync"

	"tiptop/internal/hpm"
)

// Backend decorates an inner backend with userland counter rotation.
type Backend struct {
	inner hpm.Backend
	// mu serializes every Attach and Close on the inner backend,
	// including those a task rotating by close/re-attach (the fallback)
	// makes from TaskCounter.Read — which the hpm contract lets callers
	// run concurrently on distinct counters. A gated Read never takes it.
	mu sync.Mutex
}

var _ hpm.Backend = (*Backend)(nil)

// Wrap decorates inner with counter rotation. Attaches whose events fit
// the inner capacity are passed through untouched, so wrapping an
// unconstrained backend (Capacity 0) costs nothing.
func Wrap(inner hpm.Backend) *Backend { return &Backend{inner: inner} }

// Name implements hpm.Backend; the decorator is transparent.
func (b *Backend) Name() string { return b.inner.Name() }

// Probe implements hpm.Backend.
func (b *Backend) Probe() error { return b.inner.Probe() }

// Supported implements hpm.Backend.
func (b *Backend) Supported(e hpm.EventDesc) bool { return b.inner.Supported(e) }

// Capacity implements hpm.Backend, reporting the inner backend's limit
// (the decorator itself accepts any number of events).
func (b *Backend) Capacity() int { return b.inner.Capacity() }

// SlotCost implements hpm.Backend.
func (b *Backend) SlotCost(e hpm.EventDesc) int { return b.inner.SlotCost(e) }

// Attach implements hpm.Backend. When the events fit the PMU it
// delegates; otherwise it builds a rotating counter.
func (b *Backend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	capacity := b.inner.Capacity()
	total := 0
	for _, e := range events {
		total += b.inner.SlotCost(e)
	}
	if capacity <= 0 || total <= capacity {
		// Fits the PMU: no rotation needed. The inner Attach (and the
		// returned counter's Close) still synchronize with rotation
		// attaches happening on Read goroutines of other counters.
		b.mu.Lock()
		inner, err := b.inner.Attach(task, events)
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return &passthrough{b: b, ctr: inner}, nil
	}

	// Partition: zero-cost events count continuously; slot-costing
	// events fill rotation groups of at most capacity slots, greedily
	// in request order (deterministic, and neighbouring columns rotate
	// together so ratios like IPC come from the same live window).
	c := &counter{
		b:      b,
		task:   task,
		events: events,
		acc:    make([]hpm.Count, len(events)),
	}
	var group []int
	used := 0
	for i, e := range events {
		cost := b.inner.SlotCost(e)
		if cost == 0 {
			c.free = append(c.free, i)
			continue
		}
		if used+cost > capacity && len(group) > 0 {
			c.groups = append(c.groups, group)
			group, used = nil, 0
		}
		group = append(group, i)
		used += cost
	}
	if len(group) > 0 {
		c.groups = append(c.groups, group)
	}
	c.pending = make([]uint64, len(c.groups))

	b.mu.Lock()
	defer b.mu.Unlock()
	if len(c.free) > 0 {
		fc, err := b.inner.Attach(task, c.descs(c.free))
		if err != nil {
			return nil, err
		}
		c.freeCtr = fc
	}
	if err := c.attachGroupLocked(0); err != nil {
		if c.freeCtr != nil {
			c.freeCtr.Close()
		}
		return nil, err
	}
	c.holdGroupsLocked()
	return c, nil
}

// readInto reads through the allocation-free path when ctr offers it.
func readInto(ctr hpm.TaskCounter, dst []hpm.Count) ([]hpm.Count, error) {
	if r, ok := ctr.(hpm.CountReader); ok {
		return r.ReadInto(dst)
	}
	return ctr.Read()
}

// passthrough wraps an unrotated inner counter so that its Close takes
// the backend mutex: the engine serializes its own Attach/Close calls,
// but fallback rotations of *other* counters issue inner Attach/Close
// from Read goroutines, and the inner backend is promised those never
// overlap.
type passthrough struct {
	b   *Backend
	ctr hpm.TaskCounter
}

var _ hpm.TaskCounter = (*passthrough)(nil)
var _ hpm.CountReader = (*passthrough)(nil)

func (p *passthrough) Task() hpm.TaskID           { return p.ctr.Task() }
func (p *passthrough) Read() ([]hpm.Count, error) { return p.ctr.Read() }

func (p *passthrough) ReadInto(dst []hpm.Count) ([]hpm.Count, error) {
	return readInto(p.ctr, dst)
}

func (p *passthrough) Close() error {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	return p.ctr.Close()
}

// part is one inner counter of a rotation group with the event indices
// it covers. Normally a whole group is one part; after a partial attach
// failure a fallback group decays to one part per still-working event.
type part struct {
	ctr  hpm.TaskCounter
	idxs []int
	// Held parts only (gated rotation): their readings are cumulative,
	// so a harvest differences against the previous reading (prev) and
	// swaps it with the storage the next read lands in (buf). A
	// fallback part is read once, from zero, and has neither.
	gate      hpm.Gate
	prev, buf []hpm.Count
}

// counter is the rotating TaskCounter. The engine never runs Read/Close
// of one counter concurrently, which is all the protection its own
// state needs; the backend mutex guards inner Attach/Close calls only.
type counter struct {
	b      *Backend
	task   hpm.TaskID
	events []hpm.EventDesc
	free   []int   // indices of zero-cost events, attached continuously
	groups [][]int // rotation groups over slot-costing event indices

	freeCtr hpm.TaskCounter
	freeBuf []hpm.Count
	// freeEnabled is the free counter's last Enabled reading, used to
	// measure the refresh window when a rotation attach failed and no
	// live group can report it.
	freeEnabled uint64

	cur int // index of the live group
	// held is the gated mode's state: one open part per rotation group,
	// all but held[cur] disabled. Nil while the task rotates by
	// close/re-attach.
	held []part
	// live is what the next Read harvests: held[cur:cur+1] when gated,
	// the parts attached for group cur otherwise.
	live []part
	acc  []hpm.Count // accumulated totals per event, in attach order
	// pending banks each group's schedulable-but-idle window time; it is
	// credited to the group's Enabled when the group is next harvested,
	// so Raw/Enabled/Running advance together and Scaled() stays
	// monotonic.
	pending []uint64
	closed  bool
}

var _ hpm.TaskCounter = (*counter)(nil)
var _ hpm.CountReader = (*counter)(nil)

// Task implements hpm.TaskCounter.
func (c *counter) Task() hpm.TaskID { return c.task }

func (c *counter) descs(idxs []int) []hpm.EventDesc {
	out := make([]hpm.EventDesc, len(idxs))
	for i, idx := range idxs {
		out[i] = c.events[idx]
	}
	return out
}

// attachGroupLocked attaches rotation group g as the live group,
// preferring one inner counter for the whole group and decaying to
// per-event counters when the group attach fails — a transiently
// failing event must not stall its groupmates (they keep counting; the
// failed event is simply skipped this turn and retried when its group
// next comes up). The error is only returned when not a single event of
// the group could be attached. Caller holds b.mu.
func (c *counter) attachGroupLocked(g int) error {
	idxs := c.groups[g]
	ctr, err := c.b.inner.Attach(c.task, c.descs(idxs))
	if err == nil {
		c.live = append(c.live, part{ctr: ctr, idxs: idxs})
		return nil
	}
	firstErr := err
	for _, idx := range idxs {
		ctr, err := c.b.inner.Attach(c.task, c.descs([]int{idx}))
		if err != nil {
			continue
		}
		c.live = append(c.live, part{ctr: ctr, idxs: []int{idx}})
	}
	if len(c.live) == 0 {
		return fmt.Errorf("mux: group %d of %v: %w", g, c.task, firstErr)
	}
	return nil
}

// holdGroupsLocked promotes a freshly attached counter to gated
// rotation: with group 0 live as one inner counter, open every other
// group too and leave it disabled. Anything short of that — no
// hpm.Gate, an idle group that cannot be opened (EMFILE: held groups
// cost a descriptor per event, not per live event) or disabled —
// releases what was opened and leaves the task on close/re-attach
// rotation, which needs nothing beyond group 0. Caller holds b.mu.
func (c *counter) holdGroupsLocked() {
	if len(c.live) != 1 || len(c.live[0].idxs) != len(c.groups[0]) {
		return // group 0 decayed to per-event counters
	}
	held := make([]part, len(c.groups))
	held[0] = c.live[0]
	for g := range held {
		p := &held[g]
		if g > 0 {
			ctr, err := c.b.inner.Attach(c.task, c.descs(c.groups[g]))
			if err != nil {
				break
			}
			p.ctr, p.idxs = ctr, c.groups[g]
		}
		gate, ok := p.ctr.(hpm.Gate)
		if !ok || (g > 0 && gate.Disable() != nil) {
			break
		}
		n := len(p.idxs)
		both := make([]hpm.Count, 2*n)
		p.gate, p.prev, p.buf = gate, both[:n], both[n:]
	}
	if held[len(held)-1].gate == nil {
		for _, p := range held[1:] {
			if p.ctr != nil {
				p.ctr.Close()
			}
		}
		return
	}
	c.held, c.live = held, held[:1]
}

// releaseGroupsLocked closes every open rotation-group counter: the
// live parts, and in gated mode the held idle groups with them. Caller
// holds b.mu.
func (c *counter) releaseGroupsLocked() error {
	parts := c.live
	if c.held != nil {
		parts, c.held, c.live = c.held, nil, nil
	}
	var err error
	for _, p := range parts {
		if cerr := p.ctr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.live = c.live[:0]
	return err
}

// Read implements hpm.TaskCounter.
func (c *counter) Read() ([]hpm.Count, error) {
	return c.ReadInto(nil)
}

// ReadInto implements hpm.CountReader: harvest the live group, credit
// the elapsed window to every rotated event's Enabled time, rotate to
// the next group, and report the accumulated totals. The totals are
// monotonic, so the engine's delta computation over Scaled() endpoints
// works exactly as with a real multiplexing kernel.
func (c *counter) ReadInto(dst []hpm.Count) ([]hpm.Count, error) {
	if c.closed {
		return nil, fmt.Errorf("mux: read of closed counter for %v", c.task)
	}
	c.harvest()
	c.rotate()
	return append(dst[:0], c.acc...), nil
}

// harvest is the rotation accounting, shared by both modes: fold what
// the live group counted since the previous Read into the totals and
// credit or bank the window.
func (c *counter) harvest() {
	// The window length is the enabled time the live group reports
	// since its last harvest (held) or since its attach (fallback).
	var windowNS uint64
	for i := range c.live {
		p := &c.live[i]
		counts, err := readInto(p.ctr, p.buf)
		if err != nil {
			continue
		}
		for j, idx := range p.idxs {
			var prev hpm.Count
			if p.prev != nil {
				prev = p.prev[j]
			}
			c.acc[idx].Raw += counts[j].Raw - prev.Raw
			c.acc[idx].Running += counts[j].Running - prev.Running
			if w := counts[j].Enabled - prev.Enabled; w > windowNS {
				windowNS = w
			}
		}
		if p.prev != nil {
			p.prev, p.buf = counts, p.prev
		}
	}
	// Free (zero-cost) events stay attached: their cumulative reading
	// is authoritative and always exact. Their Enabled progression also
	// measures the window when no live group could (every rotation
	// attach failed last turn).
	if c.freeCtr != nil {
		counts, err := readInto(c.freeCtr, c.freeBuf)
		if err == nil {
			c.freeBuf = counts
			for j, idx := range c.free {
				c.acc[idx] = counts[j]
			}
			if len(counts) > 0 {
				delta := counts[0].Enabled - c.freeEnabled
				c.freeEnabled = counts[0].Enabled
				if windowNS == 0 {
					windowNS = delta
				}
			}
		}
	}
	// Every rotated event was schedulable during the window, live or
	// not: that is what makes Scaled() extrapolate the idle groups. The
	// idle groups' window time is banked and credited when each group is
	// next harvested, so an event's Enabled/Running ratio only moves
	// when its Raw can move with it — see the package comment.
	for g := range c.groups {
		c.pending[g] += windowNS
	}
	for _, idx := range c.groups[c.cur] {
		c.acc[idx].Enabled += c.pending[c.cur]
	}
	c.pending[c.cur] = 0
}

// rotate makes the next group the live one. Gated: disable the live
// group, enable the next — this task's own counters, no lock. Fallback,
// and a gated task whose gate call failed (demoted for good, its held
// groups released): close what is open and attach the next group,
// under the backend mutex.
func (c *counter) rotate() {
	was := c.cur
	c.cur = (c.cur + 1) % len(c.groups)
	if c.held != nil {
		err := c.held[was].gate.Disable()
		if err == nil {
			err = c.held[c.cur].gate.Enable()
		}
		if err == nil {
			c.live = c.held[c.cur : c.cur+1]
			return
		}
	}
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	c.releaseGroupsLocked()
	// A failure here (task died, transient EBUSY) leaves this turn
	// uncounted; the next Read simply tries the following group. The
	// engine notices dead tasks through its process snapshot.
	_ = c.attachGroupLocked(c.cur)
}

// Close implements hpm.TaskCounter.
func (c *counter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	err := c.releaseGroupsLocked()
	if c.freeCtr != nil {
		if cerr := c.freeCtr.Close(); cerr != nil && err == nil {
			err = cerr
		}
		c.freeCtr = nil
	}
	return err
}

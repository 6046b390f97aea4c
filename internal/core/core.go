// Package core implements the tiptop engine: periodic sampling of
// hardware performance counters for every visible task, computation of
// the derived metric columns, and production of display-ready samples for
// the live and batch front ends.
//
// The engine is backend-agnostic: it monitors real processes through the
// perf_event backend and /proc, or simulated ones through the virtual PMU
// and the simulated process table. Its behaviour follows the paper's §2:
// counters are attached to already-running tasks the first time they are
// seen (no restart needed), the engine sleeps between refreshes, and each
// refresh displays the number of occurrences of each event since the
// previous refresh.
//
// A refresh is one pass over the process-table snapshot, in snapshot
// order, on the goroutine that called Update: the engine starts no
// goroutine and takes no lock, and a Session is not safe for concurrent
// use.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// TaskInfo is one process-table entry delivered by a ProcSource.
type TaskInfo struct {
	ID        hpm.TaskID
	User      string
	Comm      string
	State     string // R, S, Z, ...
	CPUTime   time.Duration
	StartTime time.Duration
	LastCPU   int
}

// ProcSource enumerates monitorable tasks. Implementations exist for the
// real /proc filesystem and for the simulated kernel.
type ProcSource interface {
	// Snapshot returns the current task list. Implementations may reuse
	// the returned slice on the next Snapshot call; the engine copies
	// whatever it keeps across refreshes.
	Snapshot() ([]TaskInfo, error)
}

// Clock abstracts the passage of time so that the same engine drives
// both live monitoring (sleeping wall-clock seconds) and simulation
// (advancing the simulated kernel).
type Clock interface {
	// Now returns the time since the clock's origin.
	Now() time.Duration
	// Advance lets d elapse.
	Advance(d time.Duration)
}

// RealClock is the wall-clock implementation of Clock.
type RealClock struct{ origin time.Time }

// NewRealClock returns a Clock anchored at the current instant.
func NewRealClock() *RealClock { return &RealClock{origin: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() time.Duration { return time.Since(c.origin) }

// Advance implements Clock by sleeping.
func (c *RealClock) Advance(d time.Duration) { time.Sleep(d) }

// Options configure a Session.
type Options struct {
	// Screen selects the displayed columns; nil means the default
	// Figure 1 screen.
	Screen *metrics.Screen
	// Interval is the refresh period (paper: "we typically take
	// samples every few seconds"). Default 2 s.
	Interval time.Duration
	// FreqHz is the nominal clock frequency, exposed to expressions as
	// FREQ_HZ. Optional.
	FreqHz float64
	// NumCPUs is exposed to expressions as NUM_CPUS. Optional.
	NumCPUs int
	// FilterUser restricts monitoring to one user's tasks ("" = all).
	// Mirrors the non-privileged case: users may only watch their own
	// processes.
	FilterUser string
	// MaxRows truncates the sorted display (0 = unlimited).
	MaxRows int
	// SortBy names the sort key: "cpu" (default), "pid", or any column
	// name of the screen (sorted descending).
	SortBy string
	// Parallelism is ignored: the engine samples on the calling
	// goroutine. The field remains only while bench/ still sets it.
	Parallelism int
	// Registry is the event universe screen expressions resolve
	// against; nil means hpm.DefaultRegistry(). Sessions with
	// user-defined events (XML <event> definitions) pass the extended
	// registry here.
	Registry *hpm.Registry
}

// Observer receives every sample a Session produces, synchronously on
// the sampling goroutine, immediately after the rows are sorted and
// before any MaxRows truncation — a recorder sees every monitored task
// even when the display is clipped. A sample owns its storage: the
// engine writes nothing of it again once Update returns it, so an
// observer may keep the sample, its rows and their slices, and must
// treat them as read-only, like every other holder.
type Observer interface {
	Observe(*Sample)
}

// EventTable names the positions of Row.Counts: event names live once
// per sample (once per session, for the engine's own samples) and the
// rows carry their counter deltas positionally.
type EventTable struct {
	names []string
	// Positions of the three counts every recorder, store and IPC
	// reader wants, -1 when the table lacks the event.
	instr, cycles, misses int
}

// NewEventTable builds the table of the given canonical event names.
func NewEventTable(names ...string) *EventTable {
	return &EventTable{
		names:  names,
		instr:  slices.Index(names, hpm.EventInstructions),
		cycles: slices.Index(names, hpm.EventCycles),
		misses: slices.Index(names, hpm.EventCacheMisses),
	}
}

// Row is one displayed task with its computed metrics.
type Row struct {
	Info   TaskInfo
	CPUPct float64
	// Values holds one entry per screen column.
	Values []float64
	// Counts holds the raw per-event deltas of this refresh interval,
	// positionally: Counts[i] is the event Table names at i (nil on a row
	// without counters). The canonical names are the stable identity
	// events have everywhere downstream of the backend; Count and Events
	// read the row by name.
	Counts []uint64
	Table  *EventTable
	// Coverage is the fraction of the refresh interval the task's
	// events were actually counted, averaged over the events: 1 when
	// the PMU accommodated everything, lower when counts are
	// Enabled/Running extrapolations (kernel multiplexing or the
	// internal/mux rotation). Exposed to column expressions as
	// SMPL_PCT (coverage*100).
	Coverage float64
	// Valid is false when counters could not be attached or read; the
	// renderer shows dashes and the %CPU column only.
	Valid bool
}

// ElideCoverage maps Row.Coverage to its serialized form, the one rule
// behind wire rows and snapshot tasks: exact counting (>= 1) travels as
// 0, which every encoding omits, so only multiplexed rows spend bytes
// on the field and documents that predate it keep decoding.
func ElideCoverage(c float64) float64 {
	if c >= 1 {
		return 0
	}
	return c
}

// ExactCoverage is the inverse: absent (or out of range) means exact.
func ExactCoverage(c float64) float64 {
	if c <= 0 || c > 1 {
		return 1
	}
	return c
}

// Sample is the result of one refresh.
type Sample struct {
	Time    time.Duration // clock time at the refresh
	Rows    []Row
	Dropped int // tasks that disappeared since the previous refresh
}

// SetEvents resolves rows that arrive name-keyed — off the wire, from
// the public facade — to positional counts, once, at that boundary:
// events(i) is row i's name→delta map. The rows share one table, of
// every name any of them carries, sorted; a row without events keeps
// nil Counts.
func (s *Sample) SetEvents(events func(i int) map[string]uint64) {
	var names []string
	for widened := true; widened; {
		widened = false
		table, n := NewEventTable(names...), len(names)
		counts := make([]uint64, len(s.Rows)*n)
		for i := range s.Rows {
			m := events(i)
			if len(m) == 0 {
				continue
			}
			row, found := counts[i*n:(i+1)*n:(i+1)*n], 0
			for j, name := range names {
				if v, ok := m[name]; ok {
					row[j] = v
					found++
				}
			}
			if found < len(m) {
				// The row names events the table lacks (always so for the
				// first row, rarely again): widen it and start over — every
				// row resolved so far is resolved again.
				names = slices.Grow(names, len(m))
				for name := range m {
					if !slices.Contains(names, name) {
						names = append(names, name)
					}
				}
				slices.Sort(names)
				widened = true
				break
			}
			s.Rows[i].Counts, s.Rows[i].Table = row, table
		}
	}
}

func (r *Row) at(i int) uint64 {
	if i < 0 || i >= len(r.Counts) {
		return 0
	}
	return r.Counts[i]
}

// Count returns the row's delta of the named event, 0 when the row does
// not carry it.
func (r *Row) Count(name string) uint64 {
	for have, v := range r.Events {
		if have == name {
			return v
		}
	}
	return 0
}

// Basics returns the three deltas every recorder and store keeps —
// instructions, cycles and cache misses — read by cached position.
func (r *Row) Basics() (instr, cycles, misses uint64) {
	t := r.Table
	if t == nil {
		return 0, 0, 0
	}
	return r.at(t.instr), r.at(t.cycles), r.at(t.misses)
}

// Events iterates the row's deltas by canonical event name
// (`for name, delta := range row.Events`).
func (r *Row) Events(yield func(string, uint64) bool) {
	if r.Table == nil {
		return
	}
	for i, name := range r.Table.names {
		if i >= len(r.Counts) || !yield(name, r.Counts[i]) {
			return
		}
	}
}

// IPC is a convenience accessor returning instructions/cycles for a row,
// 0 when unavailable.
func (r *Row) IPC() float64 {
	instr, cycles, _ := r.Basics()
	if cycles == 0 {
		return 0
	}
	return float64(instr) / float64(cycles)
}

// taskState is the engine's book-keeping for one monitored task.
type taskState struct {
	counter hpm.TaskCounter
	// reader is non-nil when the counter supports allocation-free
	// reads; prevCounts and spare then ping-pong as its destination.
	reader      hpm.CountReader
	prevCounts  []hpm.Count
	spare       []hpm.Count
	prevCPUTime time.Duration
	prevSeenAt  time.Duration
	everSampled bool
	seen        uint64 // epoch that last listed the task
}

// Session is a running tiptop engine.
type Session struct {
	backend  hpm.Backend
	proc     ProcSource
	clock    Clock
	opt      Options
	registry *hpm.Registry
	events   []hpm.EventDesc
	// table names events in order, for every sample's rows; columns are
	// the screen's expressions bound to a row's slot vector (the event
	// deltas by index, then metrics.ContextVars).
	table   *EventTable
	columns []*metrics.Bound
	states  map[hpm.TaskID]*taskState
	failed  map[hpm.TaskID]*attachFailure
	// epoch counts refreshes: a task's state or attach failure stamped
	// with an older one belongs to a task the snapshot no longer lists.
	epoch uint64
	// Scratch reused across refreshes, reachable from no sample: one
	// row's slot vector and the column evaluator's value stack.
	slots     []float64
	stack     []float64
	observers []Observer
	closed    bool
}

// NewSession validates the configuration and creates an engine. The
// backend is probed once; an unusable backend fails fast so callers can
// fall back (e.g. from perf_event to the simulator).
func NewSession(backend hpm.Backend, proc ProcSource, clock Clock, opt Options) (*Session, error) {
	if backend == nil || proc == nil || clock == nil {
		return nil, errors.New("core: backend, proc source and clock are required")
	}
	if err := backend.Probe(); err != nil {
		return nil, fmt.Errorf("core: backend %s unusable: %w", backend.Name(), err)
	}
	if opt.Screen == nil {
		opt.Screen = metrics.DefaultScreen()
	}
	if opt.Interval <= 0 {
		opt.Interval = 2 * time.Second
	}
	registry := opt.Registry
	if registry == nil {
		registry = hpm.DefaultRegistry()
	}
	events, err := ResolveScreenEvents(registry, opt.Screen)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(events) == 0 {
		return nil, errors.New("core: screen references no counter events")
	}
	for _, e := range events {
		if !backend.Supported(e) {
			return nil, fmt.Errorf("core: backend %s cannot count %v: %w",
				backend.Name(), e, hpm.ErrUnsupportedEvent)
		}
	}
	if err := ValidateSortKey(opt.Screen, opt.SortBy); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Session{
		backend:  backend,
		proc:     proc,
		clock:    clock,
		opt:      opt,
		registry: registry,
		events:   events,
		states:   make(map[hpm.TaskID]*taskState),
		failed:   make(map[hpm.TaskID]*attachFailure),
	}
	slots := make([]string, 0, len(events)+len(metrics.ContextVars))
	for _, e := range events {
		slots = append(slots, e.Name)
	}
	s.table = NewEventTable(slots...)
	slots = append(slots, metrics.ContextVars[:]...)
	depth := 0
	for _, col := range opt.Screen.Columns {
		b, err := col.Expr.Bind(slots)
		if err != nil {
			return nil, fmt.Errorf("core: screen %q column %q: %w", opt.Screen.Name, col.Name, err)
		}
		s.columns = append(s.columns, b)
		depth = max(depth, b.Depth())
	}
	s.slots = make([]float64, len(slots))
	s.stack = make([]float64, depth)
	return s, nil
}

// Screen returns the active screen.
func (s *Session) Screen() *metrics.Screen { return s.opt.Screen }

// Events returns the counter events the session attaches to every task.
func (s *Session) Events() []hpm.EventDesc { return s.events }

// Registry returns the event registry the session resolved its screen
// against.
func (s *Session) Registry() *hpm.Registry { return s.registry }

// Backend returns the counter backend the session samples through.
func (s *Session) Backend() hpm.Backend { return s.backend }

// ResolveScreenEvents resolves every identifier the screen's column
// expressions reference against the registry, returning the union of
// event descriptors in first-use order. An identifier that is neither a
// context variable nor resolvable as an event is rejected with an error
// naming the screen, the column and the identifier — the single source
// of truth behind both config.Load validation and NewSession.
func ResolveScreenEvents(registry *hpm.Registry, screen *metrics.Screen) ([]hpm.EventDesc, error) {
	var events []hpm.EventDesc
	seen := make(map[string]bool)
	for _, col := range screen.Columns {
		if col.Expr == nil {
			continue
		}
		// Screen columns are instant, per-task expressions; constructs
		// that only make sense across a series of buckets (topk
		// ranking, `by` grouping) belong to range queries.
		if why := col.Expr.SeriesOnly(); why != "" {
			return nil, fmt.Errorf("screen %q column %q: %s needs a range query (/api/v1/query?expr=), not a screen column",
				screen.Name, col.Name, why)
		}
		for _, id := range col.Identifiers() {
			d, err := registry.ParseEvent(id)
			if err != nil {
				return nil, fmt.Errorf("screen %q column %q: unknown identifier %q (not a context variable, registered event, RAW:0x code or hw-cache event)",
					screen.Name, col.Name, id)
			}
			if !seen[d.Name] {
				seen[d.Name] = true
				events = append(events, d)
			}
		}
	}
	return events, nil
}

// Update performs one refresh: it rescans the process table, attaches
// counters to newly discovered tasks, reads deltas for known ones, and
// returns the computed sample.
func (s *Session) Update() (*Sample, error) {
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	now := s.clock.Now()
	infos, err := s.proc.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: process snapshot: %w", err)
	}
	n := len(infos)
	if s.opt.FilterUser != "" {
		n = 0
		for i := range infos {
			if infos[i].User == s.opt.FilterUser {
				n++
			}
		}
	}
	s.epoch++
	// What a refresh hands out is made for that refresh alone: the rows,
	// one backing array for every row's column values and another for
	// every row's counter deltas.
	ncols, nev := len(s.columns), len(s.events)
	rows := make([]Row, 0, n)
	values := make([]float64, n*ncols)
	counts := make([]uint64, n*nev)
	for i := range infos {
		info := &infos[i]
		if s.opt.FilterUser != "" && info.User != s.opt.FilterUser {
			continue
		}
		rows = append(rows, Row{})
		row := &rows[len(rows)-1]
		vals := values[:ncols:ncols]
		values = values[ncols:]
		// Book-keeping is keyed by the full TaskID, so per-thread rows,
		// per-process leader rows and group-scope rows never collide.
		st, ok := s.states[info.ID]
		if !ok {
			if st = s.admit(info, now); st == nil {
				// Attach failed; show an unmonitored row.
				*row = Row{Info: *info, CPUPct: s.cpuPct(nil, info, now), Values: vals}
				continue
			}
			s.states[info.ID] = st
		}
		s.sampleTask(row, st, info, now, vals, counts[:nev:nev])
		counts = counts[nev:]
		st.prevCPUTime = info.CPUTime
		st.prevSeenAt = now
		st.everSampled = true
		st.seen = s.epoch
	}

	// Reap tasks that disappeared.
	dropped := 0
	for id, st := range s.states {
		if st.seen != s.epoch {
			_ = st.counter.Close() // the task is gone; nothing to retry
			delete(s.states, id)
			dropped++
		}
	}
	// Attach-failure state goes with the task: the map cannot grow
	// without bound under churn, and a reused TaskID starts clean
	// instead of inheriting a previous owner's blacklisting.
	for id, f := range s.failed {
		if f.seen != s.epoch {
			delete(s.failed, id)
		}
	}

	sample := &Sample{Time: now, Rows: rows, Dropped: dropped}
	s.sortRows(sample.Rows)
	// Observers run before MaxRows clips the display: recording and
	// aggregation must cover every monitored task.
	for _, o := range s.observers {
		o.Observe(sample)
	}
	if s.opt.MaxRows > 0 && len(sample.Rows) > s.opt.MaxRows {
		sample.Rows = sample.Rows[:s.opt.MaxRows]
	}
	return sample, nil
}

// Subscribe registers an observer for every subsequent sample. Not safe
// to call concurrently with Update.
func (s *Session) Subscribe(o Observer) {
	if o == nil {
		return
	}
	s.observers = append(s.observers, o)
}

// Unsubscribe removes a previously subscribed observer. Not safe to
// call concurrently with Update.
func (s *Session) Unsubscribe(o Observer) {
	for i, cur := range s.observers {
		if cur == o {
			s.observers = append(s.observers[:i], s.observers[i+1:]...)
			return
		}
	}
}

// ValidateSortKey reports whether key names a valid sort order for the
// screen: "" or "cpu" (CPU descending), "pid", or one of the screen's
// column names. It is the single source of truth for both engine-level
// validation and CLI fail-fast checks.
func ValidateSortKey(screen *metrics.Screen, key string) error {
	if key == "" || key == "cpu" || key == "pid" {
		return nil
	}
	names := make([]string, len(screen.Columns))
	for i, c := range screen.Columns {
		if c.Name == key {
			return nil
		}
		names[i] = c.Name
	}
	return fmt.Errorf("unknown sort key %q (want cpu, pid, or one of %s for screen %q)",
		key, strings.Join(names, ", "), screen.Name)
}

// cpuPct computes OS CPU usage over the refresh interval, or since task
// start on the first observation (as top does on its first screen).
func (s *Session) cpuPct(st *taskState, info *TaskInfo, now time.Duration) float64 {
	var used, wall time.Duration
	if st != nil && st.everSampled {
		used = info.CPUTime - st.prevCPUTime
		wall = now - st.prevSeenAt
	} else {
		used = info.CPUTime
		wall = now - info.StartTime
	}
	if wall <= 0 {
		return 0
	}
	pct := float64(used) / float64(wall) * 100
	if pct < 0 {
		pct = 0
	}
	return pct
}

// sortRows orders the display.
func (s *Session) sortRows(rows []Row) {
	key := s.opt.SortBy
	if key == "" {
		key = "cpu"
	}
	colIdx := -1
	if key != "cpu" && key != "pid" {
		for i, c := range s.opt.Screen.Columns {
			if c.Name == key {
				colIdx = i
				break
			}
		}
	}
	// Descending by the key, ties (and NaN, which no key yields) broken
	// by ascending PID.
	slices.SortStableFunc(rows, func(a, b Row) int {
		switch {
		case key == "pid":
		case colIdx >= 0:
			if c := cmp.Compare(b.Values[colIdx], a.Values[colIdx]); c != 0 {
				return c
			}
		default:
			if c := cmp.Compare(b.CPUPct, a.CPUPct); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.Info.ID.PID, b.Info.ID.PID)
	})
}

// Run performs n refresh cycles (n <= 0 means run until the callback
// returns false), invoking each after every update. The callback may be
// nil. Between refreshes the clock advances by the configured interval.
func (s *Session) Run(n int, each func(*Sample) bool) error {
	for i := 0; n <= 0 || i < n; i++ {
		s.clock.Advance(s.opt.Interval)
		sample, err := s.Update()
		if err != nil {
			return err
		}
		if each != nil && !each(sample) {
			return nil
		}
	}
	return nil
}

// AdvanceClock advances the session's clock by one refresh interval
// without taking a sample. Experiment drivers use it to interleave their
// own bookkeeping between refreshes.
func (s *Session) AdvanceClock() { s.clock.Advance(s.opt.Interval) }

// Interval returns the configured refresh period.
func (s *Session) Interval() time.Duration { return s.opt.Interval }

// Close releases all attached counters.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for id, st := range s.states {
		if err := st.counter.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.states, id)
	}
	return first
}

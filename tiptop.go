// Package tiptop is a Go reproduction of "Tiptop: Hardware Performance
// Counters for the Masses" (Erven Rohou, INRIA RR-7789 / ICPP 2012): a
// library and tool that attach hardware performance counters to
// already-running processes — no root, no source code, no restart — and
// derive simple, meaningful metrics such as IPC and cache misses per
// hundred instructions.
//
// Two backends are provided:
//
//   - the real backend uses the Linux perf_event_open(2) system call and
//     the /proc filesystem, exactly like the original tool;
//   - the simulated backend runs workloads on a deterministic machine
//     simulator (Nehalem/Westmere/Core 2/PPC970 presets with caches,
//     SMT, an OS scheduler and a virtual PMU), which is how the paper's
//     evaluation is reproduced in environments without PMU access.
//
// Like the paper's tool the monitor is single-threaded — a refresh is
// one pass over the process table on the goroutine that called Sample —
// because what it costs the machine it watches is CPU time (§2.5).
//
// The quickest way in:
//
//	mon, err := tiptop.NewSimMonitor(tiptop.ScenarioSPEC(), tiptop.Config{})
//	...
//	sample, err := mon.Sample()
//	for _, row := range sample.Rows {
//	    fmt.Println(row.Command, row.IPC)
//	}
package tiptop

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"tiptop/internal/config"
	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/perfevent"
	"tiptop/internal/procfs"
	"tiptop/internal/remote"
)

// Config tunes a Monitor.
type Config struct {
	// Interval is the refresh period; default 2 s. The paper samples
	// every few seconds — sub-second intervals work but increase
	// perturbation.
	Interval time.Duration
	// Screen selects the metric columns by name: "default" (Figure 1:
	// Mcycle, Minst, IPC, DMIS), "branch", "fp", or "mem". Empty means
	// "default".
	Screen string
	// SortBy orders rows: "cpu" (default), "pid", or a column name.
	SortBy string
	// MaxRows truncates the display (0 = all).
	MaxRows int
	// User restricts monitoring to one user's processes.
	User string
	// PerThread monitors individual threads instead of whole processes
	// (paper §2.2: "Events can be counted per thread, or per process").
	PerThread bool
	// SystemWide monitors logical CPUs instead of tasks (perf's "-a"
	// mode): one row per CPU, counters opened with pid=-1/cpu=N on the
	// real backend and per-CPU scheduler aggregation on the simulator.
	// The default screen becomes "system" (cycles, instructions and the
	// kernel software events). Needs perf_event_paranoid <= 0 or
	// CAP_PERFMON on real machines. PerThread and User are ignored.
	SystemWide bool
	// Counters declares how many events the PMU can count at once,
	// enabling userland counter rotation (internal/mux) when a screen
	// wants more: events are cycled through the registers and counts
	// extrapolated by enabled/running time, with coverage visible as
	// SMPL_PCT. 0 (the default) leaves multiplexing to the kernel. The
	// simulated backend takes its capacity from the machine model and
	// ignores this.
	Counters int
	// Events defines extra counter events on top of the built-in
	// registry (typically from <event> elements of an XML configuration
	// file). Screen expressions reference them by Name.
	Events []EventDef
	// Screens defines custom screens selectable via Screen (typically
	// from <screen> elements of an XML configuration file). A custom
	// screen takes precedence over a built-in of the same name.
	Screens []ScreenDef
	// Exprs defines named stored expressions (typically from <expr>
	// elements of an XML configuration file): query-grammar sources a
	// daemon serves under their name at /api/v1/query?expr=<name>, and
	// screen columns may reference as their whole expression.
	Exprs []ExprDef
	// StoreDir, when set, names the directory of the durable on-disk
	// history store (OpenStore) samples are teed into: -store (or
	// <options store=>) and tiptop -record with a store target plumb it
	// here.
	StoreDir string
	// StoreRetention is the store's age horizon: records older than
	// this (on the store's monotonic clock) are retired. 0 keeps
	// everything the byte budget allows.
	StoreRetention time.Duration
	// StoreBudget bounds the store's size on disk in bytes (0 = the
	// 64 MiB default). Oldest segments are retired first, raw tier
	// before the downsampled ones.
	StoreBudget int64
	// StoreFsync is the store's group-commit durability policy
	// (tiptopd -fsync, <options fsync=>): how far behind a kernel
	// crash may leave durable history. The zero policy never syncs.
	StoreFsync FsyncPolicy
	// StoreCompact, when positive, is the period at which a daemon
	// merges its store's sealed segments (tiptopd -compact, <options
	// compact=>). 0 never compacts automatically.
	StoreCompact time.Duration
}

// StoreOptions translates the Config's store fields into options for
// OpenStore — the one place the commands build them.
func (cfg Config) StoreOptions() StoreOptions {
	return StoreOptions{Retention: cfg.StoreRetention, Budget: cfg.StoreBudget, Fsync: cfg.StoreFsync}
}

// The definition types are internal/config's, which a -config file's
// <event>, <expr> and <screen> elements decode into, so a definition
// built in Go is checked by the same rules (config.Check) at Validate
// or constructor time.
type (
	// EventDef defines one user event: Name is the identifier metric
	// expressions use, Spec is any event specification the registry
	// resolves — "RAW:0x<hex>" for a model-specific code from the
	// vendor's manual, a hw-cache event such as "L1D_READ_MISS", or an
	// existing event name (aliasing) — and Raw is shorthand for a
	// "RAW:" Spec; exactly one of the two is given.
	EventDef = config.Event
	// ExprDef defines one named stored expression. Expr may use the
	// full query grammar — topk(), `by user|command|agent` grouping,
	// *_over_time() folds — which range queries serve and screen
	// columns reject.
	ExprDef = config.Expr
	// ScreenDef defines a custom screen.
	ScreenDef = config.Screen
	// ColumnDef defines one column of a custom screen.
	ColumnDef = config.Column
)

// StateExited is the State of an exit row: the one row a task gets
// after it leaves the process table, holding the counts of its last
// partial interval.
const StateExited = core.StateExited

// Row is one monitored task in a sample.
type Row struct {
	PID int
	// TID is the thread id under Config.PerThread (equal to PID for
	// the main thread), 0 for process-scope rows.
	TID     int
	User    string
	Command string
	State   string
	CPUPct  float64
	// IPC is instructions per cycle over the refresh interval.
	IPC float64
	// Columns holds the screen's computed values, ordered as Headers().
	Columns []float64
	// Events holds raw counter deltas keyed by canonical event name
	// (CYCLES, INSTRUCTIONS, CACHE_MISSES, ...): a view built once per
	// refresh, which the sample's wire form shares — do not write to it
	// once the sample is published.
	Events map[string]uint64
	// Coverage is the fraction of the refresh interval the row's
	// counters were actually counting: 1 when exact, lower when the
	// values are enabled/running extrapolations because the PMU was
	// oversubscribed (kernel multiplexing or internal/mux rotation).
	Coverage float64
	// Monitored is false when counters could not be attached to the
	// task (e.g. another user's process without privileges).
	Monitored bool
	// Start is the task's start time on the monitor clock — the
	// PID-reuse discriminator recorders and the remote wire format
	// carry along.
	Start time.Duration
}

// CPU reports whether the row is a system-wide per-CPU pseudo-task
// (Config.SystemWide) and, if so, which logical CPU it covers. The
// negative-PID encoding is hpm.CPUTask's.
func (r *Row) CPU() (int, bool) {
	if r.PID >= 0 {
		return 0, false
	}
	return -r.PID - 1, true
}

// Sample is one refresh of the monitor.
type Sample struct {
	Time time.Duration
	Rows []Row
	// Dropped counts tasks that disappeared since the previous refresh
	// — the per-refresh churn signal.
	Dropped int
}

// Monitor is a running tiptop engine over some backend.
type Monitor struct {
	session *core.Session
	machine string
	// wireCols is the screen's wire description, fixed for the session
	// and shared by every WireSample.
	wireCols []remote.Column
	// recs are the subscribed recorders, which sampleNow joins.
	recs recorders
}

func newMonitor(session *core.Session, machine string) *Monitor {
	m := &Monitor{session: session, machine: machine}
	session.Subscribe(&m.recs)
	for _, c := range session.Screen().Columns {
		m.wireCols = append(m.wireCols, remote.Column{
			Name: c.Name, Header: c.Header, Width: c.Width, Format: c.Format,
		})
	}
	return m
}

// ErrNoBackend is returned by NewRealMonitor when perf_event_open is not
// usable in this environment (common in containers); callers typically
// fall back to a simulated scenario.
var ErrNoBackend = errors.New("tiptop: no usable counter backend")

// ConfigFromFlags reads the flags tiptop and tiptopd share into a
// Config, once the command has applied its -config file's <options> to
// them (config.Flags.ApplyConfig). base carries what the command's own
// flags set; file, the loaded -config document (nil without one), adds
// its <event>, <expr> and <screen> definitions (ApplyDefinitions).
func ConfigFromFlags(f *config.Flags, file *config.File, base Config) (Config, error) {
	if err := f.Validate(); err != nil {
		return Config{}, err
	}
	cfg := base
	cfg.Interval = time.Duration(f.Delay * float64(time.Second))
	cfg.Screen, cfg.SortBy, cfg.User = f.Screen, f.Sort, f.User
	cfg.SystemWide, cfg.Counters = f.SystemWide, f.Counters
	cfg.StoreDir, cfg.StoreRetention = f.Store, f.Retention
	cfg.StoreBudget, cfg.StoreFsync = int64(f.Budget), FsyncPolicy(f.Fsync)
	if file != nil {
		cfg.ApplyDefinitions(file)
	}
	return cfg, nil
}

// ApplyDefinitions appends a parsed XML configuration document's
// <event>, <expr> and <screen> elements to the config — the one
// translation both commands (tiptop, tiptopd) use.
func (cfg *Config) ApplyDefinitions(f *config.File) {
	cfg.Events = append(cfg.Events, f.Events...)
	cfg.Exprs = append(cfg.Exprs, f.Exprs...)
	cfg.Screens = append(cfg.Screens, f.Screens...)
}

// coreOptions builds the engine options; freqHz and numCPUs are what
// expressions read as FREQ_HZ and NUM_CPUS.
func coreOptions(cfg Config, screen *metrics.Screen, registry *hpm.Registry, freqHz float64, numCPUs int) core.Options {
	return core.Options{
		Screen:     screen,
		Interval:   cfg.Interval,
		SortBy:     cfg.SortBy,
		MaxRows:    cfg.MaxRows,
		FilterUser: cfg.User,
		Registry:   registry,
		FreqHz:     freqHz,
		NumCPUs:    numCPUs,
	}
}

// NewRealMonitor monitors the real machine through perf_event and /proc.
// It returns ErrNoBackend (wrapped) when the kernel does not permit
// perf_event_open here. Expressions read NUM_CPUS as runtime.NumCPU()
// and FREQ_HZ as 0: the nominal clock is not probed.
func NewRealMonitor(cfg Config) (*Monitor, error) {
	screen, defs, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	backend := perfevent.New()
	backend.SetCapacity(cfg.Counters)
	if err := backend.Probe(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoBackend, err)
	}
	src := procfs.NewSource("")
	src.PerThread = cfg.PerThread
	src.SystemWide = cfg.SystemWide
	session, err := core.NewSession(mux.Wrap(backend), src, core.NewRealClock(), coreOptions(cfg, screen, defs.Registry, 0, runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	return newMonitor(session, "live perf_event"), nil
}

// NewSimMonitor monitors a simulated scenario. The scenario's clock is
// driven by the monitor: each Sample() advances simulated time by the
// configured interval.
func NewSimMonitor(sc *Scenario, cfg Config) (*Monitor, error) {
	if sc == nil {
		return nil, errors.New("tiptop: nil scenario")
	}
	screen, defs, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	src := sc.source()
	src.PerThread = cfg.PerThread
	src.SystemWide = cfg.SystemWide
	m := sc.Machine()
	session, err := core.NewSession(mux.Wrap(sc.backend()), src, sc.clock(), coreOptions(cfg, screen, defs.Registry, m.FreqHz, m.NumLogical()))
	if err != nil {
		return nil, err
	}
	return newMonitor(session, m.Name), nil
}

// OpenMonitor selects the backend the way both commands do: the named
// ready-made scenario, or — with sim empty — the real machine, falling
// back to the fallback scenario (announced on stderr) where perf_event
// is unavailable, the common case inside containers. simulated reports
// a scenario backend: its Sample advances virtual time instantly, so a
// daemon paces it, where the real backend sleeps inside Sample.
func OpenMonitor(sim, fallback string, scale float64, cfg Config) (mon *Monitor, simulated bool, err error) {
	if sim == "" {
		if mon, err = NewRealMonitor(cfg); err == nil {
			return mon, false, nil
		}
		fmt.Fprintf(os.Stderr, "%v; falling back to -sim %s\n", err, fallback)
		sim = fallback
	}
	sc, err := NewNamedScenario(sim, scale)
	if err != nil {
		return nil, false, err
	}
	mon, err = NewSimMonitor(sc, cfg)
	return mon, true, err
}

// resolve checks cfg's definitions with config.Check, the checker
// -config files go through, and selects cfg.Screen among the custom
// screens (which take precedence) and the built-ins, so Config.Validate
// fails on exactly what a Monitor constructor would reject.
func (cfg Config) resolve() (*metrics.Screen, *config.Defs, error) {
	defs, err := config.Check(cfg.Events, cfg.Exprs, cfg.Screens)
	if err != nil {
		return nil, nil, err
	}
	name := cfg.Screen
	if name == "" {
		name = "default"
		if cfg.SystemWide {
			name = "system"
		}
	}
	if s, ok := defs.Screens[name]; ok {
		return s, defs, nil
	}
	s, ok := metrics.BuiltinScreens()[name]
	if !ok {
		return nil, nil, fmt.Errorf("tiptop: unknown screen %q", name)
	}
	return s, defs, nil
}

// Machine describes what the monitor observes.
func (m *Monitor) Machine() string { return m.machine }

// Interval returns the monitor's refresh period.
func (m *Monitor) Interval() time.Duration { return m.session.Interval() }

// Headers returns the metric column headings of the active screen.
func (m *Monitor) Headers() []string {
	cols := m.session.Screen().Columns
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Header
	}
	return out
}

// Columns returns the metric column names of the active screen — the
// stable machine-friendly identifiers ("ipc", "dmis", ...), where
// Headers returns the display headings.
func (m *Monitor) Columns() []string {
	cols := m.session.Screen().Columns
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// Sample advances one refresh interval and returns the new sample.
func (m *Monitor) Sample() (*Sample, error) {
	m.session.AdvanceClock()
	return m.sampleNow()
}

// SampleNow reads counters without advancing time (the first call of a
// session attaches counters and reads zeros).
func (m *Monitor) SampleNow() (*Sample, error) { return m.sampleNow() }

// sampleNow refreshes the session and builds the public sample. The
// session only starts the recorders (recorders.Observe): a large
// sample's store append runs beside the public rows, and is joined
// before sampleNow returns, so the store holds the refresh and its Err
// is current.
func (m *Monitor) sampleNow() (*Sample, error) {
	cs, err := m.session.Update()
	if err != nil {
		return nil, err
	}
	out := &Sample{Time: cs.Time, Rows: make([]Row, len(cs.Rows)), Dropped: cs.Dropped}
	if n := len(cs.Rows); core.Split(n) {
		// Each half writes its own rows; the first on a helper goroutine.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			publicRows(out.Rows[:n/2], cs.Rows[:n/2])
			wg.Done()
		}()
		publicRows(out.Rows[n/2:], cs.Rows[n/2:])
		wg.Wait()
	} else {
		publicRows(out.Rows, cs.Rows)
	}
	for _, r := range m.recs {
		r.h.Join()
	}
	return out, nil
}

// publicRows fills out with the public form of the engine's rows. The
// core sample owns its storage, so the public rows alias its Values;
// the name-keyed Events view is built here, once per row.
func publicRows(out []Row, rows []core.Row) {
	for i := range rows {
		r := &rows[i]
		events := make(map[string]uint64, len(r.Counts))
		for name, v := range r.Events {
			events[name] = v
		}
		out[i] = Row{
			PID:       r.Info.ID.PID,
			TID:       r.Info.ID.TID,
			User:      r.Info.User,
			Command:   r.Info.Comm,
			State:     r.Info.State,
			CPUPct:    r.CPUPct,
			IPC:       r.IPC(),
			Columns:   r.Values,
			Coverage:  r.Coverage,
			Monitored: r.Valid,
			Start:     r.Info.StartTime,
			Events:    events,
		}
	}
}

// Render writes the sample as a batch-mode text block (the tiptop -b
// format) to w.
func (m *Monitor) Render(w io.Writer, s *Sample) error {
	return renderSample(m.session.Screen(), w, s)
}

// coreSample is the one public → engine translation, behind
// Store.RecordSample and every recorder fed from outside the engine (a
// RemoteMonitor's, an aggregating Daemon's agents'). Values alias the
// sample's Columns; the name-keyed Events are resolved to positional
// counts once, here (core.Sample.SetEvents). It names no Screen: no
// engine here vouches for how the values were computed, so a store
// keeps every one of them.
func (s *Sample) coreSample() *core.Sample {
	cs := &core.Sample{Time: s.Time, Dropped: s.Dropped, Rows: make([]core.Row, len(s.Rows))}
	for i := range s.Rows {
		row := &s.Rows[i]
		cs.Rows[i] = core.Row{
			Info: core.TaskInfo{
				ID:        hpm.TaskID{PID: row.PID, TID: row.TID},
				User:      row.User,
				Comm:      row.Command,
				State:     row.State,
				StartTime: row.Start,
			},
			CPUPct:   row.CPUPct,
			Values:   row.Columns,
			Coverage: row.Coverage,
			Valid:    row.Monitored,
		}
	}
	cs.SetEvents(func(i int) map[string]uint64 { return s.Rows[i].Events })
	return cs
}

// Close releases the monitor's counters.
func (m *Monitor) Close() error { return m.session.Close() }

// Events lists the canonical names of the counters the monitor attaches
// to every task.
func (m *Monitor) Events() []string {
	evs := m.session.Events()
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}

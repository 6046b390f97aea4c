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
	"strings"
	"time"

	"tiptop/internal/config"
	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/perfevent"
	"tiptop/internal/procfs"
	"tiptop/internal/remote"
	"tiptop/internal/ui"
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

// EventDef defines one user event: Name is the identifier metric
// expressions use, Spec is any event specification the registry
// resolves — "RAW:0x<hex>" for a model-specific code from the vendor's
// manual, a hw-cache event such as "L1D_READ_MISS", or an existing
// event name (aliasing).
type EventDef struct {
	Name string
	Spec string
	Unit string
	Desc string
}

// ExprDef defines one named stored expression. Expr may use the full
// query grammar — topk(), `by user|command|agent` grouping,
// *_over_time() folds — which range queries serve and screen columns
// reject.
type ExprDef struct {
	Name string
	Expr string
	Desc string
}

// ColumnDef defines one column of a custom screen.
type ColumnDef struct {
	Name   string // machine-friendly identifier, unique in the screen
	Header string // display heading
	Format string // printf verb for the cell ("" = %8.2f)
	Width  int    // minimum cell width (0 = derived from the header)
	Expr   string // metric expression over event names
	Desc   string
}

// ScreenDef defines a custom screen.
type ScreenDef struct {
	Name    string
	Columns []ColumnDef
}

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
}

func newMonitor(session *core.Session, machine string) *Monitor {
	m := &Monitor{session: session, machine: machine}
	for _, c := range m.ColumnSpecs() {
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

// buildRegistry resolves cfg.Events on top of the built-in defaults.
// Registration goes through config.RegisterUserEvent — the same
// builder behind XML <event> definitions — so the two paths validate
// identically.
func (cfg Config) buildRegistry() (*hpm.Registry, error) {
	registry := hpm.DefaultRegistry()
	for _, def := range cfg.Events {
		if err := config.RegisterUserEvent(registry, def.Name, def.Spec, def.Unit, def.Desc); err != nil {
			return nil, fmt.Errorf("tiptop: %w", err)
		}
	}
	return registry, nil
}

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

// ApplyDefinitions merges a parsed XML configuration document's
// <event>, <expr> and <screen> elements into the config — the one
// translation both commands (tiptop, tiptopd) use. Screen columns
// whose expression is exactly a stored expression's name are expanded
// here, so the facade's screen builder needs no expression registry.
func (cfg *Config) ApplyDefinitions(f *config.File) {
	for _, e := range f.Events {
		cfg.Events = append(cfg.Events, EventDef{
			Name: e.Name, Spec: e.EventSpec(), Unit: e.Unit, Desc: e.Desc,
		})
	}
	for _, e := range f.Exprs {
		cfg.Exprs = append(cfg.Exprs, ExprDef{Name: e.Name, Expr: e.Expr, Desc: e.Desc})
	}
	named := f.NamedExprs()
	for _, sx := range f.Screens {
		sd := ScreenDef{Name: sx.Name}
		for _, cx := range sx.Columns {
			expr := cx.Expr
			if src, ok := named[strings.TrimSpace(expr)]; ok {
				expr = src
			}
			sd.Columns = append(sd.Columns, ColumnDef{
				Name: cx.Name, Header: cx.Header, Format: cx.Format,
				Width: cx.Width, Expr: expr, Desc: cx.Desc,
			})
		}
		cfg.Screens = append(cfg.Screens, sd)
	}
}

// namedExprs returns the config's stored expressions as a name →
// source map, nil when none are defined — what a Daemon's
// /api/v1/query?expr=<name> expands.
func (cfg Config) namedExprs() map[string]string {
	if len(cfg.Exprs) == 0 {
		return nil
	}
	m := make(map[string]string, len(cfg.Exprs))
	for _, e := range cfg.Exprs {
		m[e.Name] = e.Expr
	}
	return m
}

// resolveScreen selects cfg.Screen among the custom screens (which take
// precedence) and the built-ins.
func (cfg Config) resolveScreen() (*metrics.Screen, error) {
	name := cfg.Screen
	if name == "" {
		name = "default"
		if cfg.SystemWide {
			name = "system"
		}
	}
	for _, sd := range cfg.Screens {
		if sd.Name != name {
			continue
		}
		return buildScreen(sd)
	}
	s, ok := metrics.BuiltinScreens()[name]
	if !ok {
		return nil, fmt.Errorf("tiptop: unknown screen %q", name)
	}
	return s, nil
}

// buildScreen compiles a screen definition.
func buildScreen(sd ScreenDef) (*metrics.Screen, error) {
	if len(sd.Columns) == 0 {
		return nil, fmt.Errorf("tiptop: screen %q has no columns", sd.Name)
	}
	s := &metrics.Screen{Name: sd.Name}
	for _, cd := range sd.Columns {
		expr, err := metrics.Compile(cd.Expr)
		if err != nil {
			return nil, fmt.Errorf("tiptop: screen %q column %q: %w", sd.Name, cd.Name, err)
		}
		col := metrics.NewColumn(cd.Name, cd.Header, cd.Format, cd.Width)
		col.Expr, col.Desc = expr, cd.Desc
		s.Columns = append(s.Columns, col)
	}
	return s, nil
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
	screen, registry, err := cfg.resolve()
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
	session, err := core.NewSession(mux.Wrap(backend), src, core.NewRealClock(), coreOptions(cfg, screen, registry, 0, runtime.NumCPU()))
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
	screen, registry, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	src := sc.source()
	src.PerThread = cfg.PerThread
	src.SystemWide = cfg.SystemWide
	m := sc.Machine()
	session, err := core.NewSession(mux.Wrap(sc.backend()), src, sc.clock(), coreOptions(cfg, screen, registry, m.FreqHz, m.NumLogical()))
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

// resolve builds the screen and event registry of a configuration,
// resolving every screen identifier so Config.Validate fails on
// exactly what a Monitor constructor would reject.
func (cfg Config) resolve() (*metrics.Screen, *hpm.Registry, error) {
	registry, err := cfg.buildRegistry()
	if err != nil {
		return nil, nil, err
	}
	screen, err := cfg.resolveScreen()
	if err != nil {
		return nil, nil, err
	}
	if _, err := core.ResolveScreenEvents(registry, screen); err != nil {
		return nil, nil, fmt.Errorf("tiptop: %w", err)
	}
	return screen, registry, nil
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

func (m *Monitor) sampleNow() (*Sample, error) {
	cs, err := m.session.Update()
	if err != nil {
		return nil, err
	}
	// The core sample owns its storage, so the public rows alias its
	// Values; the name-keyed Events view is built here, once per row.
	out := &Sample{Time: cs.Time, Rows: make([]Row, len(cs.Rows)), Dropped: cs.Dropped}
	for i := range cs.Rows {
		r := &cs.Rows[i]
		events := make(map[string]uint64, len(r.Counts))
		for name, v := range r.Events {
			events[name] = v
		}
		out.Rows[i] = Row{
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
	return out, nil
}

// Render writes the sample as a batch-mode text block (the tiptop -b
// format) to w.
func (m *Monitor) Render(w io.Writer, s *Sample) error {
	return renderSample(m.session.Screen(), w, s)
}

// renderSample writes a public sample as a batch text block under the
// given screen — shared by the local and remote monitors so the same
// refresh renders byte-identically on both sides of the wire.
func renderSample(screen *metrics.Screen, w io.Writer, s *Sample) error {
	br := &ui.BatchRenderer{W: w, Timestamps: true}
	return br.Render(screen, s.coreView())
}

// coreView is the one public → engine row translation, behind both the
// renderer and Store.RecordSample. Values alias the sample's Columns;
// the name-keyed Events are not resolved here (core.Sample.SetEvents
// does that for the one caller that stores them).
func (s *Sample) coreView() *core.Sample {
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

package metrics

import (
	"fmt"
	"slices"
	"sort"
)

// Context variable names provided by the sampling engine in addition to
// event deltas.
const (
	VarDeltaNS = "DELTA_NS" // nanoseconds since previous refresh
	VarFreqHz  = "FREQ_HZ"  // nominal core clock: the simulated model's, 0 on the real backend (not probed)
	VarCPUPct  = "CPU_PCT"  // OS-reported %CPU over the interval
	VarNumCPU  = "NUM_CPUS" // logical CPUs on the machine
	// VarSamplePct is the counter coverage of the refresh, percent: 100
	// when every event counted the whole interval, lower when the PMU
	// was oversubscribed and counts are Enabled/Running extrapolations
	// (kernel multiplexing or internal/mux rotation).
	VarSamplePct = "SMPL_PCT"
)

// Positions of the context variables in a row's slot vector, counted
// from the end of the session's event deltas.
const (
	SlotDeltaNS = iota
	SlotFreqHz
	SlotCPUPct
	SlotNumCPU
	SlotSamplePct
)

// ContextVars names the context variables in slot order.
var ContextVars = [...]string{
	SlotDeltaNS:   VarDeltaNS,
	SlotFreqHz:    VarFreqHz,
	SlotCPUPct:    VarCPUPct,
	SlotNumCPU:    VarNumCPU,
	SlotSamplePct: VarSamplePct,
}

// Column describes one displayed metric column: a header, a printf format
// for the cell, a fixed width, and the expression that computes the value
// from the current sample.
type Column struct {
	Name   string // internal name, unique within a screen
	Header string // column heading
	Width  int    // minimum cell width
	Format string // fmt verb for the value, e.g. "%5.2f"
	Expr   *Expr  // value expression
	Desc   string // one-line description for help output
}

// NewColumn builds a column from a definition that may leave the
// display attributes unset — a custom <column>, a wire column — and is
// the one place their defaults live: format "" means "%8.2f", width 0
// the header's length but at least 6.
func NewColumn(name, header, format string, width int) *Column {
	if format == "" {
		format = "%8.2f"
	}
	if width == 0 {
		width = max(len(header), 6)
	}
	return &Column{Name: name, Header: header, Width: width, Format: format}
}

// Cell formats a value for display in this column.
func (c *Column) Cell(v float64) string {
	s := fmt.Sprintf(c.Format, v)
	if len(s) < c.Width {
		s = fmt.Sprintf("%*s", c.Width, s)
	}
	return s
}

// Identifiers returns the identifiers the column's expression
// references minus the engine-provided context variables — the names
// that must resolve to counter events in the session's registry. The
// engine (and config.Load) reject screens whose identifiers do not
// resolve, so a typo fails at load time rather than per-row at eval
// time.
func (c *Column) Identifiers() []string {
	var out []string
	for _, id := range c.Expr.Identifiers() {
		if !IsContextVar(id) {
			out = append(out, id)
		}
	}
	return out
}

// IsContextVar reports whether name is one of the variables the
// sampling engine provides alongside the counter deltas.
func IsContextVar(name string) bool {
	return slices.Contains(ContextVars[:], name)
}

// Screen is a named set of columns, mirroring tiptop's configurable
// screens. The default screen reproduces Figure 1 of the paper.
type Screen struct {
	Name    string
	Columns []*Column
}

// Identifiers returns the union of non-context identifiers referenced
// by all columns, in first-use order — the names the session resolves
// to counter events.
func (s *Screen) Identifiers() []string {
	seen := make(map[string]bool)
	var out []string
	for _, col := range s.Columns {
		for _, id := range col.Identifiers() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// Column returns the column with the given name, or nil.
func (s *Screen) Column(name string) *Column {
	for _, c := range s.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// DefaultScreen returns the paper's Figure 1 screen: million cycles,
// million instructions, IPC, and last-level cache misses per hundred
// instructions.
func DefaultScreen() *Screen {
	return &Screen{
		Name: "default",
		Columns: []*Column{
			{
				Name: "mcycle", Header: "Mcycle", Width: 8, Format: "%8.0f",
				Expr: MustCompile("mega(CYCLES)"),
				Desc: "execution cycles since last refresh, in millions",
			},
			{
				Name: "minst", Header: "Minst", Width: 8, Format: "%8.0f",
				Expr: MustCompile("mega(INSTRUCTIONS)"),
				Desc: "instructions retired since last refresh, in millions",
			},
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "dmis", Header: "DMIS", Width: 5, Format: "%5.1f",
				Expr: MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)"),
				Desc: "last-level cache misses per hundred instructions",
			},
		},
	}
}

// BranchScreen returns a screen focused on control flow.
func BranchScreen() *Screen {
	return &Screen{
		Name: "branch",
		Columns: []*Column{
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "bpi", Header: "BPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(BRANCHES, INSTRUCTIONS)"),
				Desc: "branches per instruction (instruction-mix metric, paper §2.6)",
			},
			{
				Name: "misp", Header: "%MISP", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(BRANCH_MISSES, BRANCHES)"),
				Desc: "branch misprediction ratio, percent",
			},
		},
	}
}

// FPScreen returns the screen used in the §3.1 investigation: IPC next to
// micro-coded FP assists per hundred instructions ("We added a new column
// to tiptop in order to trace simultaneously IPC and FP assist events").
func FPScreen() *Screen {
	return &Screen{
		Name: "fp",
		Columns: []*Column{
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "assist", Header: "%ASST", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(FP_ASSIST, INSTRUCTIONS)"),
				Desc: "FP operations needing micro-code assist, per hundred instructions",
			},
			{
				Name: "fpi", Header: "FPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(FP_OPS, INSTRUCTIONS)"),
				Desc: "floating-point operations per instruction (paper §2.6)",
			},
		},
	}
}

// MemoryScreen returns a screen for the memory subsystem, used by the
// §3.4 interference study (L2 and L3 misses per hundred instructions).
func MemoryScreen() *Screen {
	return &Screen{
		Name: "mem",
		Columns: []*Column{
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "lpi", Header: "LPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(LOADS, INSTRUCTIONS)"),
				Desc: "loads per instruction (paper §2.6)",
			},
			{
				Name: "l2m", Header: "L2M", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(L2_MISSES, INSTRUCTIONS)"),
				Desc: "L2 cache misses per hundred instructions",
			},
			{
				Name: "l3m", Header: "L3M", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)"),
				Desc: "last-level cache misses per hundred instructions",
			},
		},
	}
}

// LatencyScreen implements the paper's stated future work (§3.4):
// "recent processors have counters for the latency of memory accesses.
// We plan to use them in the future to detect similar situations." It
// shows the average exposed DRAM latency per LLC miss and the fraction
// of cycles stalled on memory — rising latency under constant miss
// counts is the signature of DRAM-level contention (Moscibroda & Mutlu).
func LatencyScreen() *Screen {
	return &Screen{
		Name: "lat",
		Columns: []*Column{
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "l3m", Header: "L3M", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)"),
				Desc: "last-level cache misses per hundred instructions",
			},
			{
				Name: "lat", Header: "LAT", Width: 6, Format: "%6.1f",
				Expr: MustCompile("ratio(MEM_STALL_CYCLES, CACHE_MISSES)"),
				Desc: "average exposed memory latency per LLC miss, cycles",
			},
			{
				Name: "stall", Header: "%STL", Width: 5, Format: "%5.1f",
				Expr: MustCompile("per100(MEM_STALL_CYCLES, CYCLES)"),
				Desc: "fraction of cycles stalled on memory, percent",
			},
		},
	}
}

// RooflineScreen returns the §2.6 characterization metrics: FPC and LPC
// (Diamond et al.'s CPU- and memory-subsystem indicators) plus the
// instruction-mix ratios FPI/LPI/BPI the paper recommends for selecting
// the most appropriate processor in a binary-compatible family via the
// Roofline methodology.
func RooflineScreen() *Screen {
	return &Screen{
		Name: "roofline",
		Columns: []*Column{
			{
				Name: "fpc", Header: "FPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(FP_OPS, CYCLES)"),
				Desc: "floating-point operations per cycle (CPU subsystem)",
			},
			{
				Name: "lpc", Header: "LPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(LOADS, CYCLES)"),
				Desc: "loads per cycle (memory subsystem)",
			},
			{
				Name: "fpi", Header: "FPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(FP_OPS, INSTRUCTIONS)"),
				Desc: "floating-point operations per instruction",
			},
			{
				Name: "lpi", Header: "LPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(LOADS, INSTRUCTIONS)"),
				Desc: "loads per instruction",
			},
			{
				Name: "bpi", Header: "BPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(BRANCHES, INSTRUCTIONS)"),
				Desc: "branches per instruction",
			},
		},
	}
}

// WideScreen returns a deliberately oversubscribed screen: twelve
// hardware events at once, far beyond any real PMU's register count
// (the Cortex-A7 has four). It only renders meaningfully above a
// multiplexing backend — kernel-side scaling or internal/mux rotation —
// and carries the %SMPL column so the coverage behind the
// extrapolation stays visible.
func WideScreen() *Screen {
	return &Screen{
		Name: "wide",
		Columns: []*Column{
			{
				Name: "mcycle", Header: "Mcycle", Width: 8, Format: "%8.0f",
				Expr: MustCompile("mega(CYCLES)"),
				Desc: "execution cycles since last refresh, in millions",
			},
			{
				Name: "minst", Header: "Minst", Width: 8, Format: "%8.0f",
				Expr: MustCompile("mega(INSTRUCTIONS)"),
				Desc: "instructions retired since last refresh, in millions",
			},
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "ref", Header: "REF", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(CACHE_REFERENCES, INSTRUCTIONS)"),
				Desc: "last-level cache references per hundred instructions",
			},
			{
				Name: "dmis", Header: "DMIS", Width: 5, Format: "%5.1f",
				Expr: MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)"),
				Desc: "last-level cache misses per hundred instructions",
			},
			{
				Name: "l2m", Header: "L2M", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(L2_MISSES, INSTRUCTIONS)"),
				Desc: "L2 cache misses per hundred instructions",
			},
			{
				Name: "misp", Header: "%MISP", Width: 6, Format: "%6.2f",
				Expr: MustCompile("per100(BRANCH_MISSES, BRANCHES)"),
				Desc: "branch misprediction ratio, percent",
			},
			{
				Name: "lpi", Header: "LPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(LOADS, INSTRUCTIONS)"),
				Desc: "loads per instruction",
			},
			{
				Name: "spi", Header: "SPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(STORES, INSTRUCTIONS)"),
				Desc: "stores per instruction",
			},
			{
				Name: "fpi", Header: "FPI", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(FP_OPS, INSTRUCTIONS)"),
				Desc: "floating-point operations per instruction",
			},
			{
				Name: "pgflt", Header: "PGFLT", Width: 6, Format: "%6.0f",
				Expr: MustCompile("PAGE_FAULTS"),
				Desc: "page faults taken since last refresh (software event, occupies no counter)",
			},
			{
				Name: "stall", Header: "%STL", Width: 5, Format: "%5.1f",
				Expr: MustCompile("per100(MEM_STALL_CYCLES, CYCLES)"),
				Desc: "fraction of cycles stalled on memory, percent",
			},
			{
				Name: "smpl", Header: "%SMPL", Width: 6, Format: "%6.1f",
				Expr: MustCompile("SMPL_PCT"),
				Desc: "counter coverage: fraction of the interval the events were actually counted, percent",
			},
		},
	}
}

// SystemScreen returns the screen for system-wide (per-CPU) monitoring:
// cycles and instructions next to the kernel software events — page
// faults, context switches, CPU migrations. Two hardware events plus
// three zero-cost software events fit even a two-register PMU without
// rotation.
func SystemScreen() *Screen {
	return &Screen{
		Name: "system",
		Columns: []*Column{
			{
				Name: "mcycle", Header: "Mcycle", Width: 8, Format: "%8.0f",
				Expr: MustCompile("mega(CYCLES)"),
				Desc: "execution cycles since last refresh, in millions",
			},
			{
				Name: "minst", Header: "Minst", Width: 8, Format: "%8.0f",
				Expr: MustCompile("mega(INSTRUCTIONS)"),
				Desc: "instructions retired since last refresh, in millions",
			},
			{
				Name: "ipc", Header: "IPC", Width: 5, Format: "%5.2f",
				Expr: MustCompile("ratio(INSTRUCTIONS, CYCLES)"),
				Desc: "executed instructions per cycle",
			},
			{
				Name: "pgflt", Header: "PGFLT", Width: 7, Format: "%7.0f",
				Expr: MustCompile("PAGE_FAULTS"),
				Desc: "page faults since last refresh (software event)",
			},
			{
				Name: "csw", Header: "CSW", Width: 7, Format: "%7.0f",
				Expr: MustCompile("CONTEXT_SWITCHES"),
				Desc: "context switches since last refresh (software event)",
			},
			{
				Name: "migr", Header: "MIGR", Width: 5, Format: "%5.0f",
				Expr: MustCompile("CPU_MIGRATIONS"),
				Desc: "cross-CPU task migrations since last refresh (software event)",
			},
		},
	}
}

// BuiltinScreens returns all predefined screens keyed by name.
func BuiltinScreens() map[string]*Screen {
	out := map[string]*Screen{}
	for _, s := range []*Screen{DefaultScreen(), BranchScreen(), FPScreen(), MemoryScreen(), LatencyScreen(), RooflineScreen(), WideScreen(), SystemScreen()} {
		out[s.Name] = s
	}
	return out
}

// ScreenNames returns the builtin screen names, sorted — the iteration
// order commands must use so listings are deterministic run to run.
func ScreenNames() []string {
	names := make([]string, 0, len(BuiltinScreens()))
	for name := range BuiltinScreens() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

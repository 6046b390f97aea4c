// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment builds the relevant simulated scenario,
// monitors it with the real tiptop engine (the same code path the
// command-line tool uses), and returns plots, tables, headline metrics
// and paper-vs-measured notes. cmd/tipbench renders them to files;
// bench_test.go wraps them as Go benchmarks; EXPERIMENTS.md records the
// outcomes.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/trace"
)

// Config tunes experiment execution.
type Config struct {
	// Scale multiplies every workload's instruction counts. 1.0 is the
	// paper's full scale (hours of simulated time); tests and
	// benchmarks use small fractions — the phase *structure* is
	// preserved exactly, so every qualitative result is unaffected.
	Scale float64
	// Seed drives all simulation randomness.
	Seed int64
	// Quantum is the scheduler timeslice (default 10 ms).
	Quantum time.Duration
}

// DefaultConfig returns the quick configuration used by tests: 2 % of
// paper scale.
func DefaultConfig() Config {
	return Config{Scale: 0.02, Seed: 1}
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = 10 * time.Millisecond
	}
	return c
}

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Result is an experiment outcome.
type Result struct {
	ID    string
	Title string
	// Plots are the regenerated figures.
	Plots []*trace.Plot
	// Tables are the regenerated tables.
	Tables []*Table
	// Metrics are headline numbers, keyed by stable names, consumed by
	// tests and EXPERIMENTS.md.
	Metrics map[string]float64
	// Notes record paper-vs-measured comparisons, one line each.
	Notes []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: map[string]float64{}}
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is a registered table/figure driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Result, error)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: snapshot of processes on a data-center node", RunFig1},
		{"tab1", "Table 1: measured behavior of the FP micro-benchmark", RunTable1},
		{"fig3", "Figure 3: IPC of the R evolutionary algorithm", RunFig3},
		{"fig6", "Figure 6: IPC of 429.mcf and 473.astar", RunFig6},
		{"fig7", "Figure 7: IPC of 410.bwaves and 435.gromacs", RunFig7},
		{"fig8", "Figure 8: IPC versus executed instructions for 473.astar", RunFig8},
		{"fig9", "Figure 9: IPC produced by different compilers", RunFig9},
		{"fig10", "Figure 10: load on one node of the data center", RunFig10},
		{"fig11", "Figure 11: cross-core interferences for 429.mcf", RunFig11},
		{"val24", "Section 2.4: instruction-count validation against the VM oracle", RunValidation},
		{"per25", "Section 2.5: monitoring perturbation", RunPerturbation},
	}
}

// Get finds an experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared machinery ---

// coreSample and coreSession alias the engine types for driver callbacks.
type (
	coreSample  = core.Sample
	coreSession = core.Session
)

// simSession wires a tiptop engine onto a simulated kernel. Exited tasks
// stay visible (like zombies with open perf descriptors) so the final
// refresh still reads the deltas of tasks that finished mid-interval.
func simSession(k *sched.Kernel, screen *metrics.Screen, interval time.Duration, sortBy string) (*core.Session, error) {
	src := proc.NewSource(k)
	src.IncludeExited = true
	return core.NewSession(
		pmu.New(k),
		src,
		proc.NewClock(k),
		core.Options{
			Screen:   screen,
			Interval: interval,
			FreqHz:   k.Machine().FreqHz,
			NumCPUs:  k.Machine().NumLogical(),
			SortBy:   sortBy,
		},
	)
}

// newKernel builds a kernel or panics (machine presets are known-valid).
func newKernel(m *machine.Machine, cfg Config) *sched.Kernel {
	k, err := sched.New(m, sched.Options{Quantum: cfg.Quantum})
	if err != nil {
		panic(err)
	}
	return k
}

// monitorUntilDone samples the session at the given interval until every
// task has exited (or maxSamples is reached), invoking cb per sample.
func monitorUntilDone(s *core.Session, k *sched.Kernel, maxSamples int, cb func(int, *core.Sample)) error {
	for i := 0; i < maxSamples; i++ {
		sample, err := s.Update()
		if err != nil {
			return err
		}
		if cb != nil {
			cb(i, sample)
		}
		alive := false
		for _, t := range k.Tasks() {
			if t.State() != sched.TaskExited {
				alive = true
				break
			}
		}
		if !alive {
			return nil
		}
		// Advance one interval of simulated time.
		s.AdvanceClock()
	}
	return nil
}

// rowByComm finds the first row whose command matches.
func rowByComm(sample *core.Sample, comm string) *core.Row {
	for i := range sample.Rows {
		if sample.Rows[i].Info.Comm == comm {
			return &sample.Rows[i]
		}
	}
	return nil
}

// sortedKeys returns map keys in sorted order for deterministic notes.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

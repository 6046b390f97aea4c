// Package experiments regenerates every table and figure of the paper's
// evaluation. Each figure builds its workload as a tiptop.Scenario,
// monitors it with a tiptop.Daemon (what tiptopd -sim runs), refreshed
// by hand and recording into a store, and reads its series and totals
// back as store queries; so does the counter-validation oracle
// (RunOracle), of whose report the §2.4 validation is a view. The §2.5
// perturbation study measures the engine and the scheduler themselves,
// so it composes the engine directly. Each experiment returns plots,
// tables, headline metrics and paper-vs-measured notes; cmd/tipbench
// renders them to files.
package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"tiptop"
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
	// tests and tipbench's SUMMARY.txt.
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

// --- the monitored run ---

// maxRefreshes bounds a run that waits for its processes to exit.
const maxRefreshes = 500_000

// run is one monitored experiment run on the daemon tiptopd runs: a
// tiptop.Daemon over the scenario, whose recorder tees every refresh
// into a store in a temporary directory. Series and totals are read
// back from that store.
type run struct {
	sc  *tiptop.Scenario
	cfg tiptop.Config
	d   *tiptop.Daemon
	// start is the attach pass's time: refresh 0 of the run.
	start time.Duration
}

// monitor starts recording sc under cfg — its screen, one refresh per
// cfg.Interval — and takes the attach pass.
func monitor(sc *tiptop.Scenario, cfg tiptop.Config) (*run, error) {
	dir, err := os.MkdirTemp("", "tipbench-")
	if err != nil {
		return nil, err
	}
	cfg.StoreDir = dir
	r := &run{sc: sc, cfg: cfg, start: sc.Now()}
	if r.d, err = tiptop.NewDaemon(cfg, tiptop.DaemonOptions{Sim: sc}); err == nil {
		_, err = r.d.Refresh()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// store is the run's durable history.
func (r *run) store() *tiptop.Store { return r.d.Stores()[""] }

// reopen restarts the daemon over the same store directory and
// scenario, as a tiptopd restart does, so what is read next has made
// the durable round trip. Nothing is recorded after it.
func (r *run) reopen() (err error) {
	if err := r.d.Close(); err != nil {
		return err
	}
	r.d, err = tiptop.NewDaemon(r.cfg, tiptop.DaemonOptions{Sim: r.sc})
	return err
}

// close stops the daemon and deletes the store. The store is scratch,
// read before this, so its close errors change no result.
func (r *run) close() {
	if r.d != nil {
		r.d.Close()
	}
	os.RemoveAll(r.cfg.StoreDir)
}

// untilExit refreshes until none of pids runs: the refresh that misses a
// process records its exit row, the counts of its last partial interval.
func (r *run) untilExit(pids ...int) error {
	for i := 0; slices.ContainsFunc(pids, r.sc.Running); i++ {
		if i == maxRefreshes {
			return fmt.Errorf("processes %v still running after %d refreshes", pids, maxRefreshes)
		}
		if _, err := r.d.Refresh(); err != nil {
			return err
		}
	}
	return nil
}

// index converts a store time to the refresh's index in the run.
func (r *run) index(seconds float64) float64 {
	return math.Round((seconds - r.start.Seconds()) / r.cfg.Interval.Seconds())
}

// points evaluates expr by command over the store, one point per
// refresh: X is the refresh's index, Y the command's value.
func (r *run) points(expr string) (map[string][]trace.Point, error) {
	res, err := r.store().Querier().QueryExpr(expr+" by command", tiptop.QueryOptions{})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]trace.Point, len(res.Series))
	for _, s := range res.Series {
		if s.Total {
			continue
		}
		pts := make([]trace.Point, len(s.Points))
		for i, p := range s.Points {
			pts[i] = trace.Point{X: r.index(p.TimeSeconds), Y: p.Value}
		}
		out[s.Key] = pts
	}
	return out, nil
}

// series reads per-command series back from the store. The first
// expression keeps the refreshes where a command's value is nonzero —
// for an IPC, those where it retired instructions, which the attach
// pass does not — and each further one is read at the same refreshes.
// out[i] maps each command to exprs[i]'s series, named after it.
func (r *run) series(exprs ...string) ([]map[string]*trace.Series, error) {
	out := make([]map[string]*trace.Series, len(exprs))
	kept := map[string]map[float64]bool{}
	for i, expr := range exprs {
		pts, err := r.points(expr)
		if err != nil {
			return nil, err
		}
		out[i] = make(map[string]*trace.Series, len(pts))
		for comm, ps := range pts {
			s := &trace.Series{Name: comm}
			if i == 0 {
				kept[comm] = map[float64]bool{}
			}
			for _, p := range ps {
				if i == 0 && p.Y != 0 {
					kept[comm][p.X] = true
				}
				if kept[comm][p.X] {
					s.Add(p.X, p.Y)
				}
			}
			out[i][comm] = s
		}
	}
	return out, nil
}

// only returns the series of a run's one process.
func only(m map[string]*trace.Series) (*trace.Series, error) {
	for _, s := range m {
		if len(m) == 1 {
			return s, nil
		}
	}
	return nil, fmt.Errorf("want one process in the store, found %d", len(m))
}

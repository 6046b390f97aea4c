package query

// Sources: whatever replays its history as store records. A durable
// store is one as it stands; live history rings become one through
// Rings; a fleet is several, labelled by agent. Run scans each into an
// engine of its own and merges the partials in sorted label order, so
// the result is independent of scan interleaving — the bucketing,
// grouping and evaluation semantics live in the engine alone.
//
// Store scans run vectorized: segments decode on a worker pool,
// projected down to the columns the compiled expression references
// (plus CPU_PCT when referenced; IPC is always recomputed from the
// counters, which every decode keeps).

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"tiptop/internal/history"
	"tiptop/internal/metrics"
	"tiptop/internal/store"
)

// Source is one backend of a query: the value columns an expression
// may name, and a time-ordered scan of its records under
// store.Store's ScanWith contract (fn's record is scratch, cols are the
// columns in force at that record).
type Source interface {
	Columns() []string
	ScanWith(opts store.ScanOptions, fn func(rec *store.Record, cols []string) error) (time.Duration, error)
}

// Rings adapts a live recorder's ring buffers — the data the
// interactive screens render — to a Source: one raw-resolution record
// per recorded instant, rows in PID/TID order, with the machine roll-up
// the store's writer would have computed over them.
func Rings(rec *history.Recorder) Source { return rings{rec} }

type rings struct{ *history.Recorder }

func (r rings) ScanWith(opts store.ScanOptions, fn func(rec *store.Record, cols []string) error) (time.Duration, error) {
	cols := r.Columns()
	series := r.AllSeries()
	// Every ring holds a time-ordered run of the recorder's refresh
	// instants: one cursor per ring walks them in step.
	next := make([]int, len(series))
	var rec store.Record
	for {
		rec.TimeSeconds = math.Inf(1)
		for i := range series {
			if n := next[i]; n < len(series[i].Points) {
				rec.TimeSeconds = min(rec.TimeSeconds, series[i].Points[n].TimeSeconds)
			}
		}
		if math.IsInf(rec.TimeSeconds, 1) || opts.ToSeconds > 0 && rec.TimeSeconds > opts.ToSeconds {
			return 0, nil
		}
		rec.Rows = rec.Rows[:0]
		rec.Machine = store.RecordAgg{}
		for i := range series {
			s := &series[i]
			if n := next[i]; n < len(s.Points) && s.Points[n].TimeSeconds == rec.TimeSeconds {
				p := &s.Points[n]
				next[i]++
				rec.Rows = append(rec.Rows, store.RecordRow{
					PID: s.PID, TID: s.TID, User: s.User, Command: s.Command,
					CPUPct: p.CPUPct, Values: p.Values,
					Instr: p.Instr, Cycles: p.Cycles, Misses: p.Misses,
				})
				m := &rec.Machine
				m.Tasks++
				m.CPUPct += p.CPUPct
				m.Instr, m.Cycles, m.Misses = m.Instr+p.Instr, m.Cycles+p.Cycles, m.Misses+p.Misses
			}
		}
		if rec.TimeSeconds < opts.FromSeconds {
			continue
		}
		if err := fn(&rec, cols); err != nil {
			return 0, err
		}
	}
}

// scanInto streams one source's in-range records into an engine. The
// scan projects the decode down to what the expression references
// unless opt asks for a full decode or the plan is raw (it reads every
// column).
func scanInto(eng *Engine, src Source, c *Compiled, opt Options) error {
	so := store.ScanOptions{
		QueryOptions: store.QueryOptions{
			PID:         -1,
			FromSeconds: opt.FromSeconds,
			ToSeconds:   opt.ToSeconds,
			StepSeconds: opt.StepSeconds,
		},
		Workers: opt.Workers,
	}
	if !opt.FullDecode && !c.raw() {
		so.Project = true
		so.Columns = c.References()
		for _, name := range so.Columns {
			if name == metrics.VarCPUPct {
				so.NeedCPUPct = true
			}
		}
	}
	res, err := src.ScanWith(so, func(rec *store.Record, cols []string) error {
		eng.Push(rec, cols)
		return nil
	})
	eng.SetResolution(res.Seconds())
	return err
}

// QueryStore evaluates a compiled expression over one durable store.
func QueryStore(st *store.Store, c *Compiled, opt Options) (*Result, error) {
	return Run(map[string]Source{"": st}, c, opt)
}

// Run evaluates a compiled expression across labelled sources — the one
// unlabelled source of a solo query, or a fleet's per-agent stores:
// per-task series stay labelled by agent, grouped roll-ups (`by user`,
// `by agent`) and the total sum across the fleet on aligned step
// buckets, with ratios recomputed from the summed counters — the same
// Σinstr/Σcycles semantics as the fleet's /api/v1/snapshot. Merging
// aligns bucket ends on each source's own monotonic clock, so a step is
// required when more than one is queried.
//
// Sources scan concurrently, each into its own engine; the partials
// merge in sorted label order, so serial and concurrent execution
// produce identical results.
func Run(srcs map[string]Source, c *Compiled, opt Options) (*Result, error) {
	eng, err := run(srcs, c, opt)
	if err != nil {
		return nil, err
	}
	return eng.Finish(), nil
}

// RunRaw answers a raw range query from one source: the per-task series
// of pid (every task when pid < 0) with every column the range carries,
// plus the machine roll-up, bucketed on opt's step — the raw plan on the
// engine Run drives.
func RunRaw(src Source, pid int, opt Options) (*RawResult, error) {
	eng, err := run(map[string]Source{"": src}, rawPlan(pid), opt)
	if err != nil {
		return nil, err
	}
	res := eng.finishRaw()
	if len(res.Columns) == 0 {
		// An empty range is labelled with the source's current columns,
		// as a range with records would have been.
		res.Columns = src.Columns()
	}
	return res, nil
}

// run scans srcs into an engine each and merges the partials.
func run(srcs map[string]Source, c *Compiled, opt Options) (*Engine, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("query: no agent stores to query")
	}
	if len(srcs) > 1 && opt.StepSeconds <= 0 {
		return nil, fmt.Errorf("query: merging %d agents needs an explicit step (buckets align per-agent clocks)", len(srcs))
	}
	labels := make([]string, 0, len(srcs))
	for label := range srcs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	// Divide the scan pool across the concurrent scans so a fleet query
	// uses the same total parallelism as a solo one.
	scanOpt := opt
	pool := opt.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	scanOpt.Workers = max(pool/len(labels), 1)
	engines := make([]*Engine, len(labels))
	errs := make([]error, len(labels))
	scan := func(i int) {
		engines[i] = NewEngine(c, labels[i], opt)
		errs[i] = scanInto(engines[i], srcs[labels[i]], c, scanOpt)
	}
	if opt.Workers == 1 || len(labels) == 1 {
		for i := range labels {
			scan(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range labels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan(i)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	eng := engines[0]
	for _, o := range engines[1:] {
		eng.Merge(o)
	}
	return eng, nil
}

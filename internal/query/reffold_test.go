package query

// The map-based fold the engine ran before its buckets became ordered
// slices: a map lookup per row and fold, a map of buckets per series, a
// make per bucket and point, bucket times collected and sorted at
// Finish. Kept, as refscan_test.go keeps the store's serial scan, as the
// reference TestFoldMatchesReference holds the engine to.

import (
	"slices"
	"sort"
	"strconv"
	"time"

	"tiptop/internal/store"
)

// refBucketAcc is one series' bucket: a slot row of sums, and the point
// rows behind it when the expression folds over them.
type refBucketAcc struct {
	n      int       // rows folded
	sum    []float64 // slot layout; DELTA_NS holds the latest row's interval
	seen   []float64 // per column slot, how many rows carried the column
	points [][]float64
}

type refSeriesAcc struct {
	key        seriesKey
	user, comm string
	buckets    map[float64]*refBucketAcc
}

// refEngine accumulates one source's records and evaluates the expression
// per bucket.
type refEngine struct {
	c      *Compiled
	opt    Options
	step   time.Duration
	agent  string   // labels the source's series in fleet merges; "" solo
	cols   []string // the record columns remap was built for
	remap  []int    // record value position → slot, -1 when unreferenced
	series map[seriesKey]*refSeriesAcc
	last   float64 // the previous record's time, -1 before the first
	res    float64 // serving resolution, set by the source
}

// newRefEngine is NewEngine for the reference fold.
func newRefEngine(c *Compiled, agent string, opt Options) *refEngine {
	return &refEngine{
		c:      c,
		opt:    opt,
		step:   time.Duration(opt.StepSeconds * float64(time.Second)),
		agent:  agent,
		series: make(map[seriesKey]*refSeriesAcc),
		last:   -1,
	}
}

// setColumns maps the value positions of records labelled cols to
// slots; the remap is rebuilt only when the scan crosses a screen
// change.
func (e *refEngine) setColumns(cols []string) {
	if e.remap != nil && slices.Equal(cols, e.cols) {
		return
	}
	e.cols = cols
	e.remap = make([]int, len(cols))
	for i, name := range cols {
		e.remap[i] = slices.Index(e.c.slots[slotCols:], name)
		if e.remap[i] >= 0 {
			e.remap[i] += slotCols
		}
	}
}

// SetResolution records the serving tier's resolution for the result.
// The coarsest resolution wins when sources differ (a fleet merge
// across agents whose stores picked different tiers).
func (e *refEngine) SetResolution(resSeconds float64) {
	if resSeconds > e.res {
		e.res = resSeconds
	}
}

// Push folds one in-range record, its values labelled cols, into the
// accumulators. The record is only read: a scan's reused scratch is
// fine.
func (e *refEngine) Push(rec *store.Record, cols []string) {
	e.setColumns(cols)
	dtNS := rec.ResSeconds * 1e9
	if dtNS == 0 && e.last >= 0 && rec.TimeSeconds > e.last {
		dtNS = (rec.TimeSeconds - e.last) * 1e9
	}
	e.last = rec.TimeSeconds
	bt := rec.TimeSeconds
	if e.step > 0 {
		bt = store.BucketEnd(time.Duration(bt*float64(time.Second)), e.step).Seconds()
	}
	for i := range rec.Rows {
		r := &rec.Rows[i]
		e.fold(e.rowKey(r), r, bt, dtNS)
		e.fold(seriesKey{total: true}, r, bt, dtNS)
	}
}

// rowKey maps a row to its output series under the query's grouping.
func (e *refEngine) rowKey(r *store.RecordRow) seriesKey {
	switch e.c.GroupBy {
	case "user":
		return seriesKey{group: r.User}
	case "command":
		return seriesKey{group: r.Command}
	case "agent":
		return seriesKey{group: e.agent}
	}
	return seriesKey{agent: e.agent, pid: r.PID, tid: r.TID}
}

func (e *refEngine) fold(key seriesKey, r *store.RecordRow, bt, dtNS float64) {
	acc := e.series[key]
	if acc == nil {
		acc = &refSeriesAcc{key: key, buckets: make(map[float64]*refBucketAcc)}
		e.series[key] = acc
	}
	acc.user, acc.comm = r.User, r.Command
	b := acc.buckets[bt]
	if b == nil {
		n := len(e.c.slots)
		vals := make([]float64, 2*n-slotCols)
		b = &refBucketAcc{sum: vals[:n], seen: vals[n:]}
		acc.buckets[bt] = b
	}
	b.n++
	b.sum[slotInstr] += float64(r.Instr)
	b.sum[slotCycles] += float64(r.Cycles)
	b.sum[slotMisses] += float64(r.Misses)
	b.sum[slotDeltaNS] = dtNS
	b.sum[slotCPU] += r.CPUPct
	var point []float64
	if e.c.Pointwise {
		point = make([]float64, len(b.sum))
		point[slotInstr], point[slotCycles], point[slotMisses] = float64(r.Instr), float64(r.Cycles), float64(r.Misses)
		point[slotDeltaNS], point[slotCPU] = dtNS, r.CPUPct
		b.points = append(b.points, point)
	}
	for i, v := range r.Values[:min(len(r.Values), len(e.remap))] {
		slot := e.remap[i]
		if slot < 0 {
			continue
		}
		b.sum[slot] += v
		b.seen[slot-slotCols]++
		if point != nil {
			point[slot] = v
		}
	}
}

// Merge folds another engine's accumulated state into e, as if o's
// records had been pushed after e's own. Sources scan concurrently into
// an engine each and the partials merge in a fixed order, so the result
// does not depend on scan interleaving: bucket sums append in merge
// order, and o wins the last-writer fields (series labels, bucket
// intervals), exactly as its records would have arriving last.
func (e *refEngine) Merge(o *refEngine) {
	e.SetResolution(o.res)
	for key, oacc := range o.series {
		acc := e.series[key]
		if acc == nil {
			e.series[key] = oacc
			continue
		}
		acc.user, acc.comm = oacc.user, oacc.comm
		for bt, ob := range oacc.buckets {
			b := acc.buckets[bt]
			if b == nil {
				acc.buckets[bt] = ob
				continue
			}
			b.n += ob.n
			for i, v := range ob.sum {
				b.sum[i] += v
			}
			b.sum[slotDeltaNS] = ob.sum[slotDeltaNS]
			for i, n := range ob.seen {
				b.seen[i] += n
			}
			b.points = append(b.points, ob.points...)
		}
	}
}

// Finish evaluates every accumulated bucket and assembles the result:
// series sorted deterministically (total first, then groups or tasks),
// topk ranking applied when the query asked for one.
func (e *refEngine) Finish() *Result {
	out := &Result{
		Expr:              e.c.Expr.String(),
		GroupBy:           e.c.GroupBy,
		K:                 e.c.K,
		ResolutionSeconds: e.res,
		StepSeconds:       e.opt.StepSeconds,
	}
	stepNS := e.opt.StepSeconds * 1e9
	row := make([]float64, len(e.c.slots))
	stack := make([]float64, e.c.bound.Depth())
	for _, acc := range e.series {
		times := make([]float64, 0, len(acc.buckets))
		for bt := range acc.buckets {
			times = append(times, bt)
		}
		sort.Float64s(times)
		s := Series{
			PID: acc.key.pid, TID: acc.key.tid,
			Agent: acc.key.agent, Total: acc.key.total,
			Points: make([]Point, 0, len(times)),
		}
		switch {
		case acc.key.total:
			s.Key = "total"
		case e.c.GroupBy != "":
			s.Key = acc.key.group
		default:
			s.Key = taskKey(acc.key)
			s.User, s.Command = acc.user, acc.comm
		}
		sum := 0.0
		for _, bt := range times {
			b := acc.buckets[bt]
			copy(row, b.sum)
			if stepNS > 0 {
				row[slotDeltaNS] = stepNS
			}
			row[slotCPU] /= float64(b.n)
			for i, n := range b.seen {
				if n > 0 {
					row[slotCols+i] /= n
				}
			}
			v := e.c.bound.EvalBucket(row, b.points, stack)
			s.Points = append(s.Points, Point{TimeSeconds: bt, Value: v})
			sum += v
		}
		if len(s.Points) > 0 {
			s.Mean = sum / float64(len(s.Points))
		}
		out.Series = append(out.Series, s)
	}
	sortSeries(out.Series)
	if e.c.K > 0 {
		out.Series = applyTopK(out.Series, e.c.K)
	}
	return out
}

// taskKey is the engine's display key for a task series as it was built
// before keys shared one buffer (appendTaskKey): one string per series.
func taskKey(k seriesKey) string {
	key := ""
	if k.agent != "" {
		key = k.agent + "/"
	}
	key += "pid:" + strconv.Itoa(k.pid)
	if k.tid != 0 && k.tid != k.pid {
		key += ":" + strconv.Itoa(k.tid)
	}
	return key
}

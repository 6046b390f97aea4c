package query

// The evaluation engine: a push-based accumulator that sources feed
// store records into, as scanned. The engine buckets each record on the
// query step by the store's own rule (store.BucketEnd), folds every
// task row into per-series per-bucket slot rows, and evaluates the
// compiled expression — bound once, at Compile, to that row layout —
// per bucket at Finish. So a source streams records straight off a
// segment scan, and several sources' partial engines merge, without
// materialising intermediate series.
//
// A row's layout is INSTRUCTIONS, CYCLES, CACHE_MISSES, DELTA_NS,
// CPU_PCT, then the screen columns the expression references. Within a
// bucket the counters carry the bucket *sum* — so delta() is the bucket
// delta and ratios recompute from sums (Σinstr/Σcycles), matching the
// store's downsampling and the fleet snapshot's aggregate semantics.
// CPU_PCT carries the mean over the contributing rows, a column the
// mean over the rows that carried it: values fold under their column's
// *name* (Push maps record positions to slots per column list), so a
// range may cross a screen change. DELTA_NS is the bucket width (step);
// at the serving resolution it is the record's own — a downsample
// tier's resolution, or the time since the source's previous record
// (0, unknown, for the first one in range).

import (
	"slices"
	"sort"
	"strconv"
	"time"

	"tiptop/internal/store"
)

// Options select the range, step and output shape of one query.
type Options struct {
	// FromSeconds/ToSeconds bound the range (inclusive) on the
	// backend's clock; ToSeconds <= 0 means "to the end".
	FromSeconds float64
	ToSeconds   float64
	// StepSeconds is the bucket width; 0 evaluates at the serving
	// resolution (one bucket per record/point).
	StepSeconds float64
	// Workers sizes the store-scan worker pool: 0 uses one worker per
	// CPU, 1 forces the serial path. An execution knob, not a query
	// parameter — it never changes the result.
	Workers int
	// FullDecode disables column projection, materializing every field
	// of every scanned record — the benchmark baseline and a debugging
	// escape hatch. Projection never changes the result either: the
	// engine only reads what the expression references.
	FullDecode bool
}

// Point is one evaluated value of a query series.
type Point struct {
	TimeSeconds float64 `json:"time_s"`
	Value       float64 `json:"value"`
}

// Series is one evaluated series: a task, a group (user/command/agent)
// or the total roll-up.
type Series struct {
	// Key is the display label: "total", a group value, or
	// "[agent/]pid[:tid]".
	Key     string `json:"key"`
	PID     int    `json:"pid,omitempty"`
	TID     int    `json:"tid,omitempty"`
	User    string `json:"user,omitempty"`
	Command string `json:"command,omitempty"`
	Agent   string `json:"agent,omitempty"`
	Total   bool   `json:"total,omitempty"`
	// Mean is the series' mean value over the range — the topk
	// ranking key.
	Mean   float64 `json:"mean"`
	Points []Point `json:"points"`
}

// Result is an expression query response.
type Result struct {
	// Expr is the canonical form of the evaluated expression.
	Expr    string `json:"expr"`
	GroupBy string `json:"group_by,omitempty"`
	K       int    `json:"k,omitempty"`
	// ResolutionSeconds is the serving tier's resolution (0 = raw).
	ResolutionSeconds float64  `json:"resolution_s"`
	StepSeconds       float64  `json:"step_s,omitempty"`
	Series            []Series `json:"series"`
}

// seriesKey identifies one output series while accumulating.
type seriesKey struct {
	agent    string
	pid, tid int
	group    string
	total    bool
}

// bucketAcc is one series' bucket: a slot row of sums, and the point
// rows behind it when the expression folds over them.
type bucketAcc struct {
	n      int       // rows folded
	sum    []float64 // slot layout; DELTA_NS holds the latest row's interval
	seen   []float64 // per column slot, how many rows carried the column
	points [][]float64
}

type seriesAcc struct {
	key        seriesKey
	user, comm string
	buckets    map[float64]*bucketAcc
}

// Engine accumulates one source's records and evaluates the expression
// per bucket.
type Engine struct {
	c      *Compiled
	opt    Options
	step   time.Duration
	agent  string   // labels the source's series in fleet merges; "" solo
	cols   []string // the record columns remap was built for
	remap  []int    // record value position → slot, -1 when unreferenced
	series map[seriesKey]*seriesAcc
	last   float64 // the previous record's time, -1 before the first
	res    float64 // serving resolution, set by the source
}

// NewEngine builds an engine for one source of one compiled query.
func NewEngine(c *Compiled, agent string, opt Options) *Engine {
	return &Engine{
		c:      c,
		opt:    opt,
		step:   time.Duration(opt.StepSeconds * float64(time.Second)),
		agent:  agent,
		series: make(map[seriesKey]*seriesAcc),
		last:   -1,
	}
}

// setColumns maps the value positions of records labelled cols to
// slots; the remap is rebuilt only when the scan crosses a screen
// change.
func (e *Engine) setColumns(cols []string) {
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
func (e *Engine) SetResolution(resSeconds float64) {
	if resSeconds > e.res {
		e.res = resSeconds
	}
}

// Push folds one in-range record, its values labelled cols, into the
// accumulators. The record is only read: a scan's reused scratch is
// fine.
func (e *Engine) Push(rec *store.Record, cols []string) {
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
func (e *Engine) rowKey(r *store.RecordRow) seriesKey {
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

func (e *Engine) fold(key seriesKey, r *store.RecordRow, bt, dtNS float64) {
	acc := e.series[key]
	if acc == nil {
		acc = &seriesAcc{key: key, buckets: make(map[float64]*bucketAcc)}
		e.series[key] = acc
	}
	acc.user, acc.comm = r.User, r.Command
	b := acc.buckets[bt]
	if b == nil {
		n := len(e.c.slots)
		vals := make([]float64, 2*n-slotCols)
		b = &bucketAcc{sum: vals[:n], seen: vals[n:]}
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
func (e *Engine) Merge(o *Engine) {
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
func (e *Engine) Finish() *Result {
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

// sortSeries orders output deterministically: the total roll-up first,
// then groups by key, then tasks by agent/pid/tid.
func sortSeries(ss []Series) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := &ss[i], &ss[j]
		if a.Total != b.Total {
			return a.Total
		}
		if a.Agent != b.Agent {
			return a.Agent < b.Agent
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Key < b.Key
	})
}

// applyTopK keeps the total roll-up plus the k series with the highest
// mean, preserving the deterministic ordering within the survivors.
func applyTopK(ss []Series, k int) []Series {
	ranked := make([]int, 0, len(ss))
	for i := range ss {
		if !ss[i].Total {
			ranked = append(ranked, i)
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		return ss[ranked[a]].Mean > ss[ranked[b]].Mean
	})
	keep := make(map[int]bool, k)
	for i, idx := range ranked {
		if i >= k {
			break
		}
		keep[idx] = true
	}
	out := ss[:0]
	for i := range ss {
		if ss[i].Total || keep[i] {
			out = append(out, ss[i])
		}
	}
	return out
}

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
// A series' buckets are a time-ordered slice, and a record's row i
// usually belongs to the series the previous record's row i did: in a
// time-ordered scan of a stable task set a fold touches no map. Series,
// their bucket lists and the buckets' rows are all carved from slabs, so
// a fold allocates per slab chunk — not per series, bucket or row.
//
// A row's layout is DELTA_NS, CPU_PCT, then the events and columns the
// expression references, folded by *name* (setLayout) so a range may
// cross a screen change. Within a bucket an event carries the *sum* of
// its counts — delta() is the bucket delta, ratios are ratios of sums,
// as in the store's tiers — CPU_PCT the mean over the rows, a column
// the mean over the rows that carried it. DELTA_NS is the bucket width
// (step), or at the serving resolution the record's own: a tier's
// resolution, or the time since the previous record (0 for the first).
//
// A raw plan (rawPlan) runs the same fold with three differences: its
// column slots are every column the range carries, added as the scan
// meets them; its total folds each record's machine roll-up instead of
// the rows; and finishRaw renders the bucket rows themselves.

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"time"
	"unsafe"

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

// RawPoint is one bucket of a raw series: the mean CPU%, the IPC
// recomputed from the summed counters, and per column the mean over the
// rows that carried it (0 where none did).
type RawPoint struct {
	TimeSeconds float64   `json:"time_s"`
	CPUPct      float64   `json:"cpu_pct"`
	IPC         float64   `json:"ipc"`
	Values      []float64 `json:"values,omitempty"`
}

// RawSeries is one task's points inside the queried range.
type RawSeries struct {
	PID     int        `json:"pid"`
	TID     int        `json:"tid,omitempty"`
	User    string     `json:"user"`
	Command string     `json:"command"`
	Points  []RawPoint `json:"points"`
}

// RawResult is a raw range query's response: per-task series of one
// source, plus its machine-wide roll-up.
type RawResult struct {
	// PID echoes the query's filter, -1 for "all tasks".
	PID int `json:"pid"`
	// ResolutionSeconds is the resolution of the tier that served the
	// query: 0 (raw refreshes), 10 or 60.
	ResolutionSeconds float64 `json:"resolution_s"`
	// StepSeconds echoes the step when it re-buckets the serving tier
	// (0 when serving tier points as-is).
	StepSeconds float64 `json:"step_s,omitempty"`
	// Columns names Values' entries: every column the range carries.
	Columns []string `json:"columns,omitempty"`
	// Machine is the machine-wide roll-up over the same range.
	Machine []RawPoint  `json:"machine,omitempty"`
	Series  []RawSeries `json:"series"`
}

// seriesKey identifies one output series while accumulating.
type seriesKey struct {
	agent    string
	pid, tid int
	group    string
	total    bool
}

// bucket is one series' bucket ending at t: a slot row of sums, and the
// point rows behind it when the expression folds over them.
type bucket struct {
	t float64
	n int // rows folded
	// vals is the slot row of sums (DELTA_NS holds the latest row's
	// interval), then per column slot how many rows carried the column.
	vals   []float64
	points [][]float64
}

// seriesAcc is one series' buckets in time order.
type seriesAcc struct {
	key        seriesKey
	user, comm string
	buckets    []bucket
}

// slab carves small slices out of chunk allocations that double from
// slabMin elements up to slabBytes, so a fold allocates per chunk, not
// per bucket. The cap is in bytes, not elements: a chunk is zeroed whole
// when made, and a query that uses a few hundred 64-byte buckets must
// not clear megabytes for them.
type slab[T any] struct {
	free []T
	next int
}

const slabMin, slabBytes = 256, 256 << 10

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		var zero T
		s.next = max(min(2*s.next, slabBytes/int(unsafe.Sizeof(zero))), slabMin)
		s.free = make([]T, max(n, s.next))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Engine accumulates one source's records and evaluates the expression
// per bucket.
type Engine struct {
	c      *Compiled
	opt    Options
	step   time.Duration
	agent  string   // labels the source's series in fleet merges; "" solo
	slots  []string // the row layout: c's, grown by setLayout for a raw plan
	event  []bool   // per slot: an event's, summed rather than averaged
	cols   []string // the record columns remap was built for
	events []string // the record events eremap was built for
	remap  []int    // record value position → slot, -1 when unreferenced
	eremap []int    // record count position → slot, -1 when unreferenced
	series map[seriesKey]*seriesAcc
	total  *seriesAcc   // series[seriesKey{total: true}], nil before the first row
	pos    []*seriesAcc // the series the previous record's row i folded into
	accs   slab[seriesAcc]
	lists  slab[bucket] // backing of series' bucket lists
	rows   slab[float64]
	heads  slab[[]float64] // backing of buckets' points lists
	last   float64         // the previous record's time, -1 before the first
	res    float64         // serving resolution, set by the source
}

// NewEngine builds an engine for one source of one compiled query.
func NewEngine(c *Compiled, agent string, opt Options) *Engine {
	return &Engine{
		c:      c,
		opt:    opt,
		step:   time.Duration(opt.StepSeconds * float64(time.Second)),
		agent:  agent,
		slots:  slices.Clip(c.slots),
		event:  make([]bool, len(c.slots)),
		series: make(map[seriesKey]*seriesAcc),
		last:   -1,
	}
}

// setLayout maps the count and value positions of records naming events
// and labelled cols to slots, rebuilt only when the scan crosses a
// screen change. A raw plan gives a column it has not met the next slot.
func (e *Engine) setLayout(cols, events []string) {
	if e.remap != nil && slices.Equal(cols, e.cols) && slices.Equal(events, e.events) {
		return
	}
	evEnd, colStart := len(e.slots), slotCols // where event and column names may sit
	if e.c.raw() {
		evEnd, colStart = rawCols, rawCols
	}
	remaps := make([]int, len(events)+len(cols))
	e.events, e.eremap = events, remaps[:len(events)]
	for i, name := range events {
		if e.eremap[i] = index(e.slots[:evEnd], name, slotCols); e.eremap[i] >= 0 {
			e.event[e.eremap[i]] = true
		}
	}
	e.cols, e.remap = cols, remaps[len(events):]
	for i, name := range cols {
		e.remap[i] = index(e.slots, name, colStart)
		if e.c.raw() && e.remap[i] < 0 {
			e.remap[i] = len(e.slots)
			e.slots, e.event = append(e.slots, name), append(e.event, false)
		} else if !e.c.raw() && slices.Contains(events, name) {
			e.remap[i] = -1
		}
	}
}

// index returns the position of name in names from from on, or -1.
func index(names []string, name string, from int) int {
	if i := slices.Index(names[from:], name); i >= 0 {
		return from + i
	}
	return -1
}

// width is the length of a bucket's vals under the current slots.
func (e *Engine) width() int { return 2*len(e.slots) - slotCols }

// widen re-lays out a bucket made before a raw plan met more columns:
// the sums keep their slots, the counts move up behind the new ones, and
// the new columns read as never carried.
func (e *Engine) widen(b *bucket) *bucket {
	if len(b.vals) == e.width() {
		return b
	}
	n := (len(b.vals) + slotCols) / 2 // slots when b was made
	vals := e.rows.take(e.width())
	copy(vals, b.vals[:n])
	copy(vals[len(e.slots):], b.vals[n:])
	b.vals = vals
	return b
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
	e.setLayout(cols, rec.Events)
	dtNS := rec.ResSeconds * 1e9
	if dtNS == 0 && e.last >= 0 && rec.TimeSeconds > e.last {
		dtNS = (rec.TimeSeconds - e.last) * 1e9
	}
	e.last = rec.TimeSeconds
	raw := e.c.raw()
	if len(rec.Rows) == 0 && !raw {
		return
	}
	bt := rec.TimeSeconds
	if e.step > 0 {
		bt = store.BucketEnd(time.Duration(bt*float64(time.Second)), e.step).Seconds()
	}
	if e.total == nil {
		e.total = e.lookup(seriesKey{total: true})
	}
	// Every row of the record lands in the same bucket of the total.
	tb := e.bucketAt(e.total, bt)
	if raw {
		// A raw plan's total is the machine roll-up the record carries —
		// one fold however wide the record, a point even without tasks,
		// and never thinned by the pid filter.
		m := &rec.Machine
		e.fold(tb, nil, &store.RecordRow{CPUPct: m.CPUPct, Counts: m.Counts}, dtNS)
		tb = nil
	}
	for len(e.pos) < len(rec.Rows) {
		e.pos = append(e.pos, e.total) // matches no row's key
	}
	for i := range rec.Rows {
		r := &rec.Rows[i]
		if raw && e.c.pid >= 0 && r.PID != e.c.pid {
			continue
		}
		// A stable task set keeps every task at its row position: the
		// series the previous record's row i went to is checked before
		// the keyed lookup hashes the row's strings.
		acc, key := e.pos[i], e.rowKey(r)
		if acc.key != key {
			acc = e.lookup(key)
			e.pos[i] = acc
		}
		acc.user, acc.comm = r.User, r.Command
		e.fold(e.bucketAt(acc, bt), tb, r, dtNS)
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

// lookup returns key's series, creating it on first sight.
func (e *Engine) lookup(key seriesKey) *seriesAcc {
	acc := e.series[key]
	if acc == nil {
		acc = &e.accs.take(1)[0]
		acc.key = key
		e.series[key] = acc
	}
	return acc
}

// bucketAt returns acc's bucket ending at bt. Scans deliver records in
// time order, so it is the newest bucket or a new one after
// it; anything else is searched for and inserted in place — order buys
// speed, never correctness. The pointer is good until acc's next
// bucketAt.
func (e *Engine) bucketAt(acc *seriesAcc, bt float64) *bucket {
	i := len(acc.buckets)
	if i > 0 && acc.buckets[i-1].t >= bt {
		if acc.buckets[i-1].t == bt {
			return e.widen(&acc.buckets[i-1])
		}
		var found bool
		i, found = slices.BinarySearchFunc(acc.buckets, bt, func(b bucket, t float64) int { return cmp.Compare(b.t, t) })
		if found {
			return e.widen(&acc.buckets[i])
		}
	}
	b := bucket{t: bt, vals: e.rows.take(e.width())}
	if i < len(acc.buckets) {
		acc.buckets = slices.Insert(acc.buckets, i, b)
		return &acc.buckets[i]
	}
	if i == cap(acc.buckets) {
		// The in-order path regrows the list out of the slab.
		grown := e.lists.take(max(4, 2*i))
		acc.buckets = grown[:copy(grown, acc.buckets)]
	}
	acc.buckets = append(acc.buckets, b)
	return &acc.buckets[i]
}

// addPoint appends a point row to b's list, regrowing it out of the
// header slab.
func (e *Engine) addPoint(b *bucket, point []float64) {
	if len(b.points) == cap(b.points) {
		grown := e.heads.take(max(4, 2*cap(b.points)))
		b.points = grown[:copy(grown, b.points)]
	}
	b.points = append(b.points, point)
}

// fold adds one row to its series' bucket b and the total's tb (nil for
// a raw plan, whose total folds machine roll-ups instead). Both share
// the row's point: it is only read once filled.
func (e *Engine) fold(b, tb *bucket, r *store.RecordRow, dtNS float64) {
	var point []float64
	if e.c.Pointwise {
		point = e.rows.take(len(e.slots))
		point[slotDeltaNS], point[slotCPU] = dtNS, r.CPUPct
		e.addPoint(b, point)
		e.addPoint(tb, point)
	}
	for _, b := range [...]*bucket{b, tb} {
		if b == nil {
			continue
		}
		b.n++
		b.vals[slotDeltaNS] = dtNS
		b.vals[slotCPU] += r.CPUPct
	}
	seen := len(e.slots) - slotCols // slot's count sits at seen+slot
	add := func(slot int, v float64) {
		for _, b := range [...]*bucket{b, tb} {
			if b != nil {
				b.vals[slot] += v
				b.vals[seen+slot]++
			}
		}
		if point != nil {
			point[slot] = v
		}
	}
	for i, c := range r.Counts[:min(len(r.Counts), len(e.eremap))] {
		if slot := e.eremap[i]; slot >= 0 {
			add(slot, float64(c))
		}
	}
	for i, v := range r.Values[:min(len(r.Values), len(e.remap))] {
		if slot := e.remap[i]; slot >= 0 {
			add(slot, v)
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
	for i, ev := range o.event {
		e.event[i] = e.event[i] || ev
	}
	for key, oacc := range o.series {
		acc := e.series[key]
		if acc == nil {
			e.series[key] = oacc
			continue
		}
		acc.user, acc.comm = oacc.user, oacc.comm
		// Two time-ordered lists: walk them together.
		merged := make([]bucket, 0, len(acc.buckets)+len(oacc.buckets))
		a, ob := acc.buckets, oacc.buckets
		for len(a) > 0 && len(ob) > 0 {
			switch {
			case a[0].t < ob[0].t:
				merged, a = append(merged, a[0]), a[1:]
			case a[0].t > ob[0].t:
				merged, ob = append(merged, ob[0]), ob[1:]
			default:
				b := a[0]
				b.n += ob[0].n
				for i, v := range ob[0].vals {
					b.vals[i] += v
				}
				b.vals[slotDeltaNS] = ob[0].vals[slotDeltaNS]
				b.points = append(b.points, ob[0].points...)
				merged, a, ob = append(merged, b), a[1:], ob[1:]
			}
		}
		acc.buckets = append(append(merged, a...), ob...)
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
	npoints := 0
	for _, acc := range e.series {
		npoints += len(acc.buckets)
	}
	points := make([]Point, 0, npoints) // every series' points, back to back
	if len(e.series) > 0 {
		out.Series = make([]Series, 0, len(e.series))
	}
	// Task keys are rendered back to back into one buffer and handed out
	// as substrings of its one string: keyEnds[i] is where series i's ends.
	keys := make([]byte, 0, len(e.series)*(len(e.agent)+16))
	keyEnds := make([]int, 0, len(e.series))
	for _, acc := range e.series {
		s := Series{
			PID: acc.key.pid, TID: acc.key.tid,
			Agent: acc.key.agent, Total: acc.key.total,
		}
		switch {
		case acc.key.total:
			s.Key = "total"
		case e.c.GroupBy != "":
			s.Key = acc.key.group
		default:
			keys = appendTaskKey(keys, acc.key)
			s.User, s.Command = acc.user, acc.comm
		}
		keyEnds = append(keyEnds, len(keys))
		sum := 0.0
		first := len(points)
		for i := range acc.buckets {
			b := &acc.buckets[i]
			copy(row, b.vals)
			if stepNS > 0 {
				row[slotDeltaNS] = stepNS
			}
			row[slotCPU] /= float64(b.n)
			for i, n := range b.vals[len(row):] {
				if n > 0 && !e.event[slotCols+i] {
					row[slotCols+i] /= n
				}
			}
			v := e.c.bound.EvalBucket(row, b.points, stack)
			points = append(points, Point{TimeSeconds: b.t, Value: v})
			sum += v
		}
		s.Points = points[first:len(points):len(points)]
		if len(s.Points) > 0 {
			s.Mean = sum / float64(len(s.Points))
		}
		out.Series = append(out.Series, s)
	}
	all, start := string(keys), 0
	for i, end := range keyEnds {
		if end > start {
			out.Series[i].Key = all[start:end]
		}
		start = end
	}
	sortSeries(out.Series)
	if e.c.K > 0 {
		out.Series = applyTopK(out.Series, e.c.K)
	}
	return out
}

// finishRaw renders a raw plan's buckets as they are: per bucket the mean
// CPU%, Σinstr/Σcycles and each column's mean over the rows that carried
// it, the total's buckets as the machine roll-up, task series sorted by
// PID then TID. On single-screen data that is what the downsampling
// accumulator makes of the same rows — the fold that wrote the tiers.
func (e *Engine) finishRaw() *RawResult {
	out := &RawResult{PID: e.c.pid, ResolutionSeconds: e.res, Columns: e.slots[rawCols:]}
	if step := e.step.Seconds(); step > e.res {
		out.StepSeconds = step
	}
	ncols := len(out.Columns)
	npoints := 0
	for _, acc := range e.series {
		npoints += len(acc.buckets)
	}
	// Every series' points, and every point's values, back to back.
	points := make([]RawPoint, 0, npoints)
	values := make([]float64, 0, npoints*ncols)
	out.Series = make([]RawSeries, 0, len(e.series))
	for _, acc := range e.series {
		first := len(points)
		for i := range acc.buckets {
			b := e.widen(&acc.buckets[i])
			p := RawPoint{TimeSeconds: b.t, CPUPct: b.vals[slotCPU] / float64(b.n)}
			if cycles := b.vals[rawCycles]; cycles > 0 {
				p.IPC = b.vals[rawInstr] / cycles
			}
			if !acc.key.total && ncols > 0 {
				start := len(values)
				for c, n := range b.vals[len(e.slots)+rawCols-slotCols:] {
					values = append(values, b.vals[rawCols+c]/max(n, 1)) // a column no row carried sums to 0
				}
				p.Values = values[start:len(values):len(values)]
			}
			points = append(points, p)
		}
		pts := points[first:len(points):len(points)]
		if acc.key.total {
			out.Machine = pts
			continue
		}
		out.Series = append(out.Series, RawSeries{
			PID: acc.key.pid, TID: acc.key.tid, User: acc.user, Command: acc.comm, Points: pts,
		})
	}
	slices.SortFunc(out.Series, func(a, b RawSeries) int {
		return cmp.Or(cmp.Compare(a.PID, b.PID), cmp.Compare(a.TID, b.TID))
	})
	return out
}

// appendTaskKey renders a task series' display key, "[agent/]pid:N[:tid]".
func appendTaskKey(b []byte, k seriesKey) []byte {
	if k.agent != "" {
		b = append(append(b, k.agent...), '/')
	}
	b = strconv.AppendInt(append(b, "pid:"...), int64(k.pid), 10)
	if k.tid != 0 && k.tid != k.pid {
		b = strconv.AppendInt(append(b, ':'), int64(k.tid), 10)
	}
	return b
}

// sortSeries orders output deterministically: the total roll-up first,
// then groups by key, then tasks by agent/pid/tid.
func sortSeries(ss []Series) {
	slices.SortFunc(ss, func(a, b Series) int {
		if a.Total != b.Total {
			if a.Total {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.PID, b.PID),
			cmp.Compare(a.TID, b.TID), cmp.Compare(a.Key, b.Key))
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
	// Sized by the series, never by k: the literal comes from the request.
	keep := make([]bool, len(ss))
	for _, idx := range ranked[:min(k, len(ranked))] {
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

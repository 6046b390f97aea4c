package store

// Tiered downsampling: every raw refresh folds into a 10-second
// accumulator; each completed 10-second bucket is written as a record
// of the 10s tier and folds into the 1-minute accumulator, and so on
// down Resolutions. Buckets are half-open (k·res, (k+1)·res] windows of
// the store's monotonic record clock, and a bucket's record is stamped
// with the window's end time (so a record's data always lies at or
// before its timestamp, and a record stamped exactly on a boundary
// folds into the coarser bucket ending there).
//
// Within a bucket each event's counts sum and a row records n, the
// refreshes it folded (a coarser tier sums both), so a derived column
// (derive.go) is a ratio of sums or a mean per refresh. CPU% and every
// other column average — every column, in a bucket holding a record
// written without a derivation — a coarser tier averaging the finer's.
// An engine's attach read (N 0) stays in the raw tier, folded nowhere.
//
// The accumulator reuses all storage across buckets: folding a task
// that already has an entry allocates nothing, keeping the append hot
// path flat. Partial buckets are lost on Close/crash — the raw tier
// still holds their data.

import (
	"slices"
	"time"

	"tiptop/internal/hpm"
)

// dsTask accumulates one task's contribution to the current bucket.
type dsTask struct {
	id         hpm.TaskID
	user, comm string
	n          int           // refreshes folded this bucket
	k          int           // finer-tier rows folded this bucket: the means' divisor
	lastEnd    time.Duration // end of the last bucket folded into
	cpuSum     float64
	valSums    []float64
	counts     []uint64  // per event, the bucket's sum
	avg        []float64 // scratch the flushed row's Values point into
	sums       []uint64  // scratch the flushed row's Counts point into
}

// bucket is a completed downsample window: one row per task, in no
// particular order (Store.fold sorts what it writes), counts under
// events, values derived under der (nil: none).
type bucket struct {
	end    time.Duration
	rows   []RecordRow
	events []string
	der    *derivation
}

// accumulator folds finer-tier records into fixed-width buckets.
type accumulator struct {
	res    time.Duration
	end    time.Duration // current bucket's end, 0 before the first fold
	tasks  map[hpm.TaskID]*dsTask
	funnel bucket // reused flush scratch
	// The bucket's layout: its records' events, and their derivation if
	// they share one; pos maps posOf, the last record's events, into it.
	open   bool
	events []string
	der    *derivation
	pos    []int
	posOf  []string
}

func newAccumulator(res time.Duration) *accumulator {
	return &accumulator{res: res, tasks: make(map[hpm.TaskID]*dsTask)}
}

// BucketEnd is the bucketing rule, for tiers and range queries (raw or
// expression) alike: the end of the half-open (k·res, (k+1)·res]
// window holding now. The closed upper end matters for tier chaining: a
// finer-tier record stamped exactly on a boundary (10s records always
// are) carries data from *before* that instant and must fold into the
// bucket ending there, not the one starting there.
func BucketEnd(now, res time.Duration) time.Duration {
	idx := time.Duration(0)
	if now > 0 {
		idx = (now - 1) / res
	}
	return (idx + 1) * res
}

// advance moves the accumulator to the bucket containing now. When that
// closes the current bucket and it holds data, the completed bucket is
// returned for flushing (valid until the next advance).
func (a *accumulator) advance(now time.Duration) *bucket {
	end := BucketEnd(now, a.res)
	if a.end == 0 {
		a.end = end
		return nil
	}
	if end == a.end {
		return nil
	}
	out := a.close()
	a.end = end
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// close drains the current bucket into the reused flush scratch,
// resetting per-bucket sums and evicting tasks gone for over a bucket.
func (a *accumulator) close() *bucket {
	a.funnel.end, a.funnel.events, a.funnel.der = a.end, a.events, a.der
	a.funnel.rows = a.funnel.rows[:0]
	a.open, a.der = false, nil
	for id, t := range a.tasks {
		if t.n == 0 {
			if a.end-t.lastEnd > a.res {
				delete(a.tasks, id)
			}
			continue
		}
		k := float64(t.k)
		t.avg = append(t.avg[:0], t.valSums...)
		for i := range t.avg {
			t.avg[i] /= k
		}
		t.sums = append(t.sums[:0], t.counts...)
		a.funnel.rows = append(a.funnel.rows, RecordRow{
			PID: id.PID, TID: id.TID, User: t.user, Command: t.comm,
			CPUPct: t.cpuSum / k, Values: t.avg, Counts: t.sums, N: t.n,
		})
		t.n, t.k, t.cpuSum = 0, 0, 0
		clear(t.valSums)
		clear(t.counts)
		t.valSums, t.counts = t.valSums[:0], t.counts[:0]
	}
	if der := a.funnel.der; der != nil {
		der.fill(a.funnel.rows, der.mask())
	}
	return &a.funnel
}

// fold adds one finer-tier record's rows, counts laid out under events
// and values derived under der, to the current bucket. A row spanning
// no refresh (N 0) is not folded.
func (a *accumulator) fold(rows []RecordRow, events []string, der *derivation) {
	if !a.open {
		a.open, a.events, a.der, a.posOf = true, events, der, nil
	} else if !a.der.same(der) {
		a.der = nil
	}
	if a.posOf == nil || !slices.Equal(events, a.posOf) {
		a.posOf, a.pos = events, a.pos[:0]
		for _, name := range events {
			if !slices.Contains(a.events, name) {
				a.events = append(slices.Clip(a.events), name)
			}
			a.pos = append(a.pos, slices.Index(a.events, name))
		}
	}
	for i := range rows {
		if r := &rows[i]; r.N > 0 {
			a.foldRow(r)
		}
	}
}

func (a *accumulator) foldRow(r *RecordRow) {
	id := hpm.TaskID{PID: r.PID, TID: r.TID}
	t := a.tasks[id]
	if t == nil {
		t = &dsTask{id: id}
		a.tasks[id] = t
	}
	t.user, t.comm = r.User, r.Command
	t.lastEnd = a.end
	t.n += r.N
	t.k++
	t.cpuSum += r.CPUPct
	// Re-extended within capacity, the sums read zero: close clears them.
	t.counts = slices.Grow(t.counts, max(0, len(a.events)-len(t.counts)))[:max(len(a.events), len(t.counts))]
	for i, c := range r.Counts[:min(len(r.Counts), len(a.pos))] {
		t.counts[a.pos[i]] += c
	}
	t.valSums = slices.Grow(t.valSums, max(0, len(r.Values)-len(t.valSums)))[:max(len(r.Values), len(t.valSums))]
	for i, v := range r.Values {
		t.valSums[i] += v
	}
}

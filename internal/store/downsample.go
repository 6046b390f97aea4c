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
// Within a bucket, CPU% and column values average and the raw counters
// (instructions, cycles, misses) sum; a coarser tier averages the finer
// tier's averages (buckets a task was absent from do not dilute it).
// No ratio is stored: a reader's IPC is Σinstr/Σcycles over the summed
// counters, not a mean of ratios.
//
// The accumulator reuses all storage across buckets: folding a task
// that already has an entry allocates nothing, keeping the append hot
// path flat. Partial buckets are lost on Close/crash — the raw tier
// still holds their data.

import (
	"time"

	"tiptop/internal/hpm"
)

// dsTask accumulates one task's contribution to the current bucket.
type dsTask struct {
	id         hpm.TaskID
	user, comm string
	n          int           // finer-tier records folded this bucket
	lastEnd    time.Duration // end of the last bucket folded into
	cpuSum     float64
	valSums    []float64
	avg        []float64 // scratch the flushed row's Values point into
	instr      uint64
	cycles     uint64
	misses     uint64
}

// bucket is a completed downsample window: one averaged row per task,
// in no particular order (Store.fold sorts what it writes).
type bucket struct {
	end  time.Duration
	rows []RecordRow
}

// accumulator folds finer-tier records into fixed-width buckets.
type accumulator struct {
	res    time.Duration
	end    time.Duration // current bucket's end, 0 before the first fold
	tasks  map[hpm.TaskID]*dsTask
	funnel bucket // reused flush scratch
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
	a.funnel.end = a.end
	a.funnel.rows = a.funnel.rows[:0]
	for id, t := range a.tasks {
		if t.n == 0 {
			if a.end-t.lastEnd > a.res {
				delete(a.tasks, id)
			}
			continue
		}
		n := float64(t.n)
		if cap(t.avg) < len(t.valSums) {
			t.avg = make([]float64, len(t.valSums))
		}
		t.avg = t.avg[:len(t.valSums)]
		for i, s := range t.valSums {
			t.avg[i] = s / n
		}
		a.funnel.rows = append(a.funnel.rows, RecordRow{
			PID: id.PID, TID: id.TID, User: t.user, Command: t.comm,
			CPUPct: t.cpuSum / n, Values: t.avg,
			Instr: t.instr, Cycles: t.cycles, Misses: t.misses,
		})
		t.n = 0
		t.cpuSum = 0
		t.instr, t.cycles, t.misses = 0, 0, 0
		// Zero before truncating: a later re-extension within capacity
		// must expose zeros, not last bucket's sums.
		for i := range t.valSums {
			t.valSums[i] = 0
		}
		t.valSums = t.valSums[:0]
	}
	return &a.funnel
}

// fold adds one finer-tier task row to the current bucket.
func (a *accumulator) fold(r *RecordRow) {
	id := hpm.TaskID{PID: r.PID, TID: r.TID}
	t := a.tasks[id]
	if t == nil {
		t = &dsTask{id: id}
		a.tasks[id] = t
	}
	t.user, t.comm = r.User, r.Command
	t.lastEnd = a.end
	t.n++
	t.cpuSum += r.CPUPct
	t.instr += r.Instr
	t.cycles += r.Cycles
	t.misses += r.Misses
	if len(t.valSums) < len(r.Values) {
		if cap(t.valSums) < len(r.Values) {
			grown := make([]float64, len(r.Values))
			copy(grown, t.valSums)
			t.valSums = grown
		} else {
			t.valSums = t.valSums[:len(r.Values)]
		}
	}
	for i, v := range r.Values {
		t.valSums[i] += v
	}
}

package core

import (
	"errors"
	"sync/atomic"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// A shard owns a disjoint subset of the monitored tasks. Assignment is
// by a stable hash of the TaskID, so a task's book-keeping lives on one
// shard for its entire life and the per-refresh sampling loop runs
// without any locking: each shard touches only its own state and writes
// only its own row slots of the merged sample.
//
// The only cross-shard synchronisation is Session.attachMu, taken around
// backend.Attach and TaskCounter.Close — the two operations the hpm
// contract does not require to be concurrency-safe. Counter reads and
// metric evaluation, the per-tick hot path, are lock-free.
type shard struct {
	s      *Session
	states map[hpm.TaskID]*taskState
	failed map[hpm.TaskID]*attachFailure
	// epoch counts refreshes: a task's state or attach failure stamped
	// with an older one belongs to a task the snapshot no longer lists.
	epoch uint64

	// Scratch reused across refreshes. None of it is reachable from a
	// sample: what a refresh hands out (rows, their Values and Counts)
	// is carved from arrays made for that refresh alone. slots is one
	// row's slot vector — its event deltas by index, then the context
	// variables — and stack the column evaluator's value stack.
	work   []workItem
	slots  []float64
	stack  []float64
	reaped []hpm.TaskCounter
}

// workItem is one snapshot entry routed to a shard. idx is the entry's
// position in the filtered snapshot: the shard writes its row there, so
// the merged sample comes out in snapshot order and the final sort
// produces output identical to the serial engine's.
type workItem struct {
	info TaskInfo
	idx  int
}

// attachFailure tracks why and when attaching to a task last failed.
type attachFailure struct {
	permanent bool
	attempts  int
	retryAt   time.Duration // next attach attempt not before this time
	seen      uint64        // shard epoch that last listed the task
}

// Attach retry policy: the first failure is retried on the very next
// refresh (transient races with task startup are common), later ones
// back off exponentially until the rate settles at one attempt per
// attachBackoffMax. Retries never stop for transient errors — a task
// that becomes attachable after a long restriction (e.g. a lowered
// perf_event_paranoid) is picked up again — only permission and
// unsupported-event failures are permanent.
const (
	attachBackoffBase = time.Second
	attachBackoffMax  = time.Minute
)

func newShard(s *Session) *shard {
	return &shard{
		s:      s,
		states: make(map[hpm.TaskID]*taskState),
		failed: make(map[hpm.TaskID]*attachFailure),
		slots:  make([]float64, len(s.events)+len(metrics.ContextVars)),
		stack:  make([]float64, s.stackDepth),
	}
}

// shardIndex maps a task to its owning shard: FNV-1a over the id, so the
// assignment is stable across refreshes and engine instances.
func shardIndex(id hpm.TaskID, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(uint32(id.PID))) * 1099511628211
	h = (h ^ uint64(uint32(id.TID))) * 1099511628211
	return int(h % uint64(n))
}

// refresh processes the shard's slice of the snapshot: attach newcomers,
// read deltas and evaluate columns for known tasks, and reap the shard's
// tasks that disappeared. Runs concurrently with other shards' refresh.
func (sh *shard) refresh(now time.Duration, rows []Row, dropped *atomic.Int64) {
	sh.epoch++
	// One backing array serves every row's column values this refresh,
	// another every row's counter deltas.
	ncols, nev := len(sh.s.columns), len(sh.s.events)
	values := make([]float64, len(sh.work)*ncols)
	counts := make([]uint64, len(sh.work)*nev)
	for wi := range sh.work {
		w := &sh.work[wi]
		info, row := &w.info, &rows[w.idx]
		vals := values[:ncols:ncols]
		values = values[ncols:]
		st, ok := sh.states[info.ID]
		if !ok {
			st = sh.admit(info, now)
			if st == nil {
				// Attach failed; show an unmonitored row.
				sh.cpuOnlyRow(row, info, now, nil, vals)
				continue
			}
			sh.states[info.ID] = st
		}
		sh.sampleTask(row, st, info, now, vals, counts[:nev:nev])
		counts = counts[nev:]
		st.prevCPUTime = info.CPUTime
		st.prevSeenAt = now
		st.everSampled = true
		st.seen = sh.epoch
	}

	// Reap tasks that disappeared. Their counters are handed back to
	// Update, which closes them serially after all shards join.
	for id, st := range sh.states {
		if st.seen != sh.epoch {
			if st.counter != nil {
				sh.reaped = append(sh.reaped, st.counter)
			}
			delete(sh.states, id)
			dropped.Add(1)
		}
	}
	// Attach-failure state goes with the task: the map cannot grow
	// without bound under churn, and a reused TaskID starts clean
	// instead of inheriting a previous owner's blacklisting.
	for id, f := range sh.failed {
		if f.seen != sh.epoch {
			delete(sh.failed, id)
		}
	}
}

// admit starts monitoring a newly seen task. Returns nil when counters
// cannot be attached; failures are remembered with bounded
// retry-with-backoff (permanent ones are never retried).
func (sh *shard) admit(info *TaskInfo, now time.Duration) *taskState {
	if f, ok := sh.failed[info.ID]; ok {
		f.seen = sh.epoch
		if f.permanent || now < f.retryAt {
			return nil
		}
	}
	s := sh.s
	s.attachMu.Lock()
	ctr, err := s.backend.Attach(info.ID, s.events)
	s.attachMu.Unlock()
	if err != nil {
		sh.noteFailure(info.ID, now, err)
		return nil
	}
	counts, err := ctr.Read()
	if err != nil {
		s.attachMu.Lock()
		_ = ctr.Close()
		s.attachMu.Unlock()
		sh.noteFailure(info.ID, now, err)
		return nil
	}
	delete(sh.failed, info.ID)
	reader, _ := ctr.(hpm.CountReader)
	return &taskState{
		counter:     ctr,
		reader:      reader,
		prevCounts:  counts,
		prevCPUTime: info.CPUTime,
		prevSeenAt:  now,
	}
}

// noteFailure records an attach failure and schedules (or forbids) the
// next attempt.
func (sh *shard) noteFailure(id hpm.TaskID, now time.Duration, err error) {
	f := sh.failed[id]
	if f == nil {
		f = &attachFailure{seen: sh.epoch}
		sh.failed[id] = f
	}
	f.attempts++
	if errors.Is(err, hpm.ErrPermission) || errors.Is(err, hpm.ErrUnsupportedEvent) {
		f.permanent = true
		return
	}
	if f.attempts > 1 {
		d := attachBackoffMax
		if shift := f.attempts - 2; shift < 10 {
			if b := attachBackoffBase << shift; b < d {
				d = b
			}
		}
		f.retryAt = now + d
	}
}

// sampleTask fills row: it reads counter deltas into deltas and
// evaluates the screen columns into vals — the row's pre-carved slots
// of the shard's arrays for this refresh.
func (sh *shard) sampleTask(row *Row, st *taskState, info *TaskInfo, now time.Duration, vals []float64, deltas []uint64) {
	s := sh.s
	var counts []hpm.Count
	var err error
	if st.reader != nil {
		counts, err = st.reader.ReadInto(st.spare[:0])
	} else {
		counts, err = st.counter.Read()
	}
	if err != nil || len(counts) != len(deltas) {
		sh.cpuOnlyRow(row, info, now, st, vals)
		return
	}
	hpm.DeltasInto(deltas, st.prevCounts, counts)
	coverage := coverageOf(st.prevCounts, counts)
	st.spare = st.prevCounts
	st.prevCounts = counts

	cpuPct := s.cpuPct(st, info, now)
	for i, d := range deltas {
		sh.slots[i] = float64(d)
	}
	ctx := sh.slots[len(deltas):]
	ctx[metrics.SlotDeltaNS] = float64(now - st.prevSeenAt)
	ctx[metrics.SlotFreqHz] = s.opt.FreqHz
	ctx[metrics.SlotCPUPct] = cpuPct
	ctx[metrics.SlotNumCPU] = float64(s.opt.NumCPUs)
	ctx[metrics.SlotSamplePct] = coverage * 100
	for i, col := range s.columns {
		vals[i] = col.Eval(sh.slots, sh.stack)
	}
	*row = Row{
		Info:     *info,
		CPUPct:   cpuPct,
		Counts:   deltas,
		Table:    s.table,
		Values:   vals,
		Coverage: coverage,
		Valid:    true,
	}
}

// coverageOf computes the refresh's counter coverage: the mean over
// events of the interval's Running/Enabled ratio. When no event's
// Enabled time advanced the task was off-CPU for the whole interval
// (or the backend tracks no scheduling time) and nothing was missed —
// that counts as fully covered. But when the task demonstrably ran
// (some event's Enabled advanced), an event whose own Enabled stood
// still is a rotated counter whose group sat detached: zero coverage
// this interval, not full. The mux credits a group's Enabled only at
// its harvest, so between harvests this is the honest reading.
func coverageOf(prev, cur []hpm.Count) float64 {
	if len(cur) == 0 {
		return 1
	}
	enabledDelta := func(i int) uint64 {
		d := cur[i].Enabled
		if i < len(prev) && prev[i].Enabled <= d {
			// A reset counter (cur below prev) restarts the baseline
			// at zero, mirroring hpm.DeltasInto's clamp.
			d -= prev[i].Enabled
		}
		return d
	}
	anyRan := false
	for i := range cur {
		if enabledDelta(i) > 0 {
			anyRan = true
			break
		}
	}
	sum := 0.0
	for i := range cur {
		dEn := enabledDelta(i)
		dRun := cur[i].Running
		if i < len(prev) && prev[i].Running <= dRun {
			dRun -= prev[i].Running
		}
		if dEn == 0 {
			if !anyRan {
				sum++
			}
			continue
		}
		if dRun >= dEn {
			sum++
			continue
		}
		sum += float64(dRun) / float64(dEn)
	}
	return sum / float64(len(cur))
}

// cpuOnlyRow fills row as unmonitored (no counters available).
func (sh *shard) cpuOnlyRow(row *Row, info *TaskInfo, now time.Duration, st *taskState, vals []float64) {
	*row = Row{
		Info:   *info,
		CPUPct: sh.s.cpuPct(st, info, now),
		Values: vals,
	}
}

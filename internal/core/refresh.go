package core

import (
	"errors"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// attachFailure tracks why and when attaching to a task last failed.
type attachFailure struct {
	permanent bool
	attempts  int
	retryAt   time.Duration // next attach attempt not before this time
	seen      uint64        // epoch that last listed the task
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

// admit starts monitoring a newly seen task. Returns nil when counters
// cannot be attached; failures are remembered with bounded
// retry-with-backoff (permanent ones are never retried).
func (s *Session) admit(info *TaskInfo, now time.Duration) *taskState {
	if f, ok := s.failed[info.ID]; ok {
		f.seen = s.epoch
		if f.permanent || now < f.retryAt {
			return nil
		}
	}
	ctr, err := s.backend.Attach(info.ID, s.events)
	if err != nil {
		s.noteFailure(info.ID, now, err)
		return nil
	}
	counts, err := ctr.Read()
	if err != nil {
		_ = ctr.Close()
		s.noteFailure(info.ID, now, err)
		return nil
	}
	delete(s.failed, info.ID)
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
func (s *Session) noteFailure(id hpm.TaskID, now time.Duration, err error) {
	f := s.failed[id]
	if f == nil {
		f = &attachFailure{seen: s.epoch}
		s.failed[id] = f
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
// of this refresh's arrays.
func (s *Session) sampleTask(row *Row, st *taskState, info *TaskInfo, now time.Duration, vals []float64, deltas []uint64) {
	var counts []hpm.Count
	var err error
	if st.reader != nil {
		counts, err = st.reader.ReadInto(st.spare[:0])
	} else {
		counts, err = st.counter.Read()
	}
	if err != nil || len(counts) != len(deltas) {
		// Unmonitored this refresh: the renderer shows %CPU and dashes.
		*row = Row{Info: *info, CPUPct: s.cpuPct(st, info, now), Values: vals}
		return
	}
	hpm.DeltasInto(deltas, st.prevCounts, counts)
	coverage := coverageOf(st.prevCounts, counts)
	st.spare = st.prevCounts
	st.prevCounts = counts

	cpuPct := s.cpuPct(st, info, now)
	for i, d := range deltas {
		s.slots[i] = float64(d)
	}
	ctx := s.slots[len(deltas):]
	ctx[metrics.SlotDeltaNS] = float64(now - st.prevSeenAt)
	ctx[metrics.SlotFreqHz] = s.opt.FreqHz
	ctx[metrics.SlotCPUPct] = cpuPct
	ctx[metrics.SlotNumCPU] = float64(s.opt.NumCPUs)
	ctx[metrics.SlotSamplePct] = coverage * 100
	for i, col := range s.columns {
		vals[i] = col.Eval(s.slots, s.stack)
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

package store

// Range queries. A query names a time range on the store's monotonic
// clock, an optional PID, and a step; the step selects the downsample
// tier (the coarsest whose resolution fits the step) and, when coarser
// than the tier itself, re-buckets the scanned points on the fly. The
// scan walks segment files directly — queries hold the store lock only
// long enough to snapshot the segment list, so they run concurrently
// with appends.

import (
	"fmt"
	"sort"
	"time"

	"tiptop/internal/hpm"
)

// QueryOptions select a time range of recorded history.
type QueryOptions struct {
	// PID restricts the result to one process's tasks; negative means
	// every task.
	PID int
	// FromSeconds and ToSeconds bound the range (inclusive) on the
	// store clock. ToSeconds <= 0 means "to the end".
	FromSeconds float64
	ToSeconds   float64
	// StepSeconds selects the resolution: the coarsest tier whose
	// resolution is <= step serves the query (0 or anything below 10
	// reads raw refreshes), and a step coarser than the tier averages
	// scanned points into step-wide buckets.
	StepSeconds float64
}

// Point is one point of a queried series, mirroring history.Point.
type Point struct {
	TimeSeconds float64   `json:"time_s"`
	CPUPct      float64   `json:"cpu_pct"`
	IPC         float64   `json:"ipc"`
	Values      []float64 `json:"values,omitempty"`
}

// Series is one task's points inside the queried range.
type Series struct {
	PID     int     `json:"pid"`
	TID     int     `json:"tid,omitempty"`
	User    string  `json:"user"`
	Command string  `json:"command"`
	Points  []Point `json:"points"`
}

// Result is a range-query response.
type Result struct {
	// PID echoes the query's filter, -1 for "all tasks".
	PID int `json:"pid"`
	// ResolutionSeconds is the resolution of the tier that served the
	// query: 0 (raw refreshes), 10 or 60.
	ResolutionSeconds float64 `json:"resolution_s"`
	// StepSeconds echoes the effective step (0 when serving tier
	// points as-is).
	StepSeconds float64  `json:"step_s,omitempty"`
	Columns     []string `json:"columns,omitempty"`
	// Machine is the machine-wide roll-up over the same range.
	Machine []Point  `json:"machine,omitempty"`
	Series  []Series `json:"series"`
}

// queryView is the segment list snapshot a scan walks after the store
// lock is released: paths plus the byte length valid at snapshot time
// (the active segment keeps growing underneath).
type queryView struct {
	files []queryFile
	res   time.Duration
	cols  []string
}

type queryFile struct {
	path  string
	valid int64
	first time.Duration
	last  time.Duration
}

// TierFor returns the resolution of the downsample tier a query step
// selects: the coarsest tier whose resolution is <= step (0, the raw
// tier, for steps under 10s). Pure on the step, so callers can size
// their buckets before scanning.
func TierFor(step time.Duration) time.Duration {
	for i := len(Resolutions) - 1; i > 0; i-- {
		if step >= Resolutions[i] {
			return Resolutions[i]
		}
	}
	return Resolutions[0]
}

// Scan streams every record of a time range through fn in time order,
// serving from the tier the query's step selects — the shared iterator
// both Query and the expression engine (internal/query) ride on. fn
// receives each decoded record inside the range together with the
// column names in force at that record's time (each segment's first
// record carries the columns; a range can start after the carrying
// record). Scan does not filter rows by PID — consumers that care
// filter per row. It returns the serving tier's resolution.
//
// Scan decodes segments inline or on a worker pool (see ScanWith): the
// record passed to fn is reused scratch, valid only for the duration of the
// call — fn must copy anything it keeps. Invalid ranges (to before
// from, a negative step) fail with a *RangeError.
func (st *Store) Scan(q QueryOptions, fn func(rec *Record, cols []string) error) (time.Duration, error) {
	return st.ScanWith(ScanOptions{QueryOptions: q}, fn)
}

// Query scans the selected tier and returns every matching series,
// sorted by PID then TID, plus the machine roll-up. A step coarser than
// the serving tier re-buckets through the downsampling accumulator —
// the fold that wrote the tiers — so reading a tier at a coarser step
// and writing that coarser tier agree by construction.
func (st *Store) Query(q QueryOptions) (*Result, error) {
	step := time.Duration(q.StepSeconds * float64(time.Second))
	res := TierFor(step)
	out := &Result{PID: q.PID, ResolutionSeconds: res.Seconds()}
	if q.PID < 0 {
		out.PID = -1
	}
	// The machine roll-up travels as one pseudo-task's row, in a set and
	// an accumulator of its own: a PID filter must not thin it.
	tasks, machine := seriesSet{}, seriesSet{}
	var taskAcc, machineAcc *accumulator
	if step > res {
		out.StepSeconds = step.Seconds()
		taskAcc, machineAcc = newAccumulator(step), newAccumulator(step)
	}
	_, err := st.Scan(q, func(rec *Record, cols []string) error {
		out.Columns = cols
		m := RecordRow{
			CPUPct: rec.Machine.CPUPct, IPC: ratio(rec.Machine.Instr, rec.Machine.Cycles),
			Instr: rec.Machine.Instr, Cycles: rec.Machine.Cycles,
		}
		if machineAcc == nil {
			machine.add(rec.TimeSeconds, &m)
		} else {
			now := time.Duration(rec.TimeSeconds * float64(time.Second))
			machine.addBucket(machineAcc.advance(now))
			tasks.addBucket(taskAcc.advance(now))
			machineAcc.fold(&m)
		}
		for i := range rec.Rows {
			r := &rec.Rows[i]
			if q.PID >= 0 && r.PID != q.PID {
				continue
			}
			if taskAcc == nil {
				tasks.add(rec.TimeSeconds, r)
			} else {
				taskAcc.fold(r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out.Columns == nil {
		// Empty range: label with the store's current columns, as a
		// scan with records would have.
		st.mu.Lock()
		out.Columns = append([]string(nil), st.cols...)
		st.mu.Unlock()
	}
	if machineAcc != nil {
		machine.addBucket(machineAcc.close())
		tasks.addBucket(taskAcc.close())
	}
	if s := machine[hpm.TaskID{}]; s != nil {
		out.Machine = s.Points
	}
	out.Series = tasks.sorted()
	return out, nil
}

// snapshotTier picks the tier for the step and snapshots its segment
// chain under the lock.
func (st *Store) snapshotTier(step time.Duration) (*queryView, time.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tiers == nil {
		return nil, 0, fmt.Errorf("store: closed")
	}
	ti := 0
	for i, r := range Resolutions {
		if r == TierFor(step) {
			ti = i
		}
	}
	t := st.tiers[ti]
	view := &queryView{res: t.res, cols: append([]string(nil), st.cols...)}
	add := func(sg *segment) {
		if sg == nil || sg.n == 0 {
			return
		}
		view.files = append(view.files, queryFile{
			path: sg.path, valid: sg.size, first: sg.first, last: sg.last,
		})
	}
	for _, sg := range t.sealed {
		add(sg)
	}
	add(t.active)
	return view, t.res, nil
}

// seriesSet assembles one series per task, points in scan (time) order.
type seriesSet map[hpm.TaskID]*Series

// add copies one row (a scan's or an accumulator's reused scratch) into
// a point of its task's series, stamped at.
func (ss seriesSet) add(at float64, r *RecordRow) {
	id := hpm.TaskID{PID: r.PID, TID: r.TID}
	s := ss[id]
	if s == nil {
		s = &Series{PID: r.PID, TID: r.TID}
		ss[id] = s
	}
	s.User, s.Command = r.User, r.Command
	s.Points = append(s.Points, Point{
		TimeSeconds: at, CPUPct: r.CPUPct, IPC: r.IPC,
		Values: append([]float64(nil), r.Values...),
	})
}

// addBucket adds a completed step bucket's rows (nil: none completed).
func (ss seriesSet) addBucket(b *bucket) {
	if b == nil {
		return
	}
	for i := range b.rows {
		ss.add(b.end.Seconds(), &b.rows[i])
	}
}

// sorted returns the series ordered by PID then TID.
func (ss seriesSet) sorted() []Series {
	out := make([]Series, 0, len(ss))
	for _, s := range ss {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].TID < out[j].TID
	})
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

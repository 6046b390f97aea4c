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
// sorted by PID then TID, plus the machine roll-up.
func (st *Store) Query(q QueryOptions) (*Result, error) {
	step := time.Duration(q.StepSeconds * float64(time.Second))
	res := TierFor(step)
	out := &Result{PID: q.PID, ResolutionSeconds: res.Seconds()}
	if q.PID < 0 {
		out.PID = -1
	}
	rebucket := step > res && step > 0
	if rebucket {
		out.StepSeconds = step.Seconds()
	}
	agg := newSeriesSet(rebucket, step)
	_, err := st.Scan(q, func(rec *Record, cols []string) error {
		out.Columns = cols
		agg.addMachine(rec.TimeSeconds, &rec.Machine)
		for i := range rec.Rows {
			r := &rec.Rows[i]
			if q.PID >= 0 && r.PID != q.PID {
				continue
			}
			agg.addRow(rec.TimeSeconds, r)
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
	agg.finish(out)
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

// seriesSet assembles query output, optionally re-bucketing to a step
// coarser than the serving tier.
type seriesSet struct {
	rebucket bool
	step     time.Duration
	tasks    map[hpm.TaskID]*seriesAcc
	machine  seriesAcc
}

type seriesAcc struct {
	pid, tid   int
	user, comm string
	points     []Point
	// step-bucket accumulation
	bucket int64
	n      int
	cpu    float64
	ipc    float64
	instr  uint64
	cycles uint64
	vals   []float64
}

func newSeriesSet(rebucket bool, step time.Duration) *seriesSet {
	ss := &seriesSet{rebucket: rebucket, step: step, tasks: make(map[hpm.TaskID]*seriesAcc)}
	ss.machine.bucket = -1
	return ss
}

func (ss *seriesSet) addRow(timeSec float64, r *RecordRow) {
	id := hpm.TaskID{PID: r.PID, TID: r.TID}
	acc := ss.tasks[id]
	if acc == nil {
		acc = &seriesAcc{pid: r.PID, tid: r.TID, bucket: -1}
		ss.tasks[id] = acc
	}
	acc.user, acc.comm = r.User, r.Command
	ss.add(acc, timeSec, r.CPUPct, r.IPC, r.Values, r.Instr, r.Cycles)
}

func (ss *seriesSet) addMachine(timeSec float64, m *RecordAgg) {
	ss.add(&ss.machine, timeSec, m.CPUPct, ratio(m.Instr, m.Cycles), nil, m.Instr, m.Cycles)
}

// add appends one observation to a series, directly or via its step
// bucket.
func (ss *seriesSet) add(acc *seriesAcc, timeSec, cpu, ipc float64, values []float64, instr, cycles uint64) {
	if !ss.rebucket {
		acc.points = append(acc.points, Point{
			TimeSeconds: timeSec, CPUPct: cpu, IPC: ipc,
			Values: append([]float64(nil), values...),
		})
		return
	}
	// Points are stamped at their window's end, so step buckets are the
	// half-open (start, end] windows: a point at exactly t=30 belongs to
	// the bucket ending at 30, not the one starting there.
	d := time.Duration(timeSec * float64(time.Second))
	idx := int64(0)
	if d > 0 {
		idx = int64((d - 1) / ss.step)
	}
	if acc.bucket >= 0 && idx != acc.bucket {
		acc.flush(ss.step)
	}
	acc.bucket = idx
	acc.n++
	acc.cpu += cpu
	acc.ipc += ipc
	acc.instr += instr
	acc.cycles += cycles
	if len(acc.vals) < len(values) {
		grown := make([]float64, len(values))
		copy(grown, acc.vals)
		acc.vals = grown
	}
	for i, v := range values {
		acc.vals[i] += v
	}
}

// flush emits the current step bucket as one averaged point.
func (acc *seriesAcc) flush(step time.Duration) {
	if acc.n == 0 {
		return
	}
	n := float64(acc.n)
	p := Point{
		TimeSeconds: (time.Duration(acc.bucket+1) * step).Seconds(),
		CPUPct:      acc.cpu / n,
		IPC:         acc.ipc / n,
	}
	if acc.cycles > 0 {
		p.IPC = float64(acc.instr) / float64(acc.cycles)
	}
	if len(acc.vals) > 0 {
		p.Values = make([]float64, len(acc.vals))
		for i, v := range acc.vals {
			p.Values[i] = v / n
		}
	}
	acc.points = append(acc.points, p)
	acc.n = 0
	acc.cpu, acc.ipc = 0, 0
	acc.instr, acc.cycles = 0, 0
	for i := range acc.vals {
		acc.vals[i] = 0
	}
	acc.vals = acc.vals[:0]
}

// finish flushes pending buckets and writes the sorted series list.
func (ss *seriesSet) finish(out *Result) {
	if ss.rebucket {
		ss.machine.flush(ss.step)
		for _, acc := range ss.tasks {
			acc.flush(ss.step)
		}
	}
	out.Machine = ss.machine.points
	out.Series = make([]Series, 0, len(ss.tasks))
	for _, acc := range ss.tasks {
		out.Series = append(out.Series, Series{
			PID: acc.pid, TID: acc.tid, User: acc.user, Command: acc.comm,
			Points: acc.points,
		})
	}
	sort.Slice(out.Series, func(i, j int) bool {
		a, b := &out.Series[i], &out.Series[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.TID < b.TID
	})
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

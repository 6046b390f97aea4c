package store

// The raw range query as the store answered it before it became a plan
// on the query engine (internal/query's RunRaw), kept as the reference:
// the store's history-reading tests run on it, and rawplan_test.go
// holds the engine's raw plan to its bytes. It is verbatim but for the
// counts: a point's IPC is its row's INSTRUCTIONS/CYCLES, looked up by
// name under the record's events, and a re-bucketed row folds as one
// refresh. Query re-buckets through the write side's accumulator, with
// every column averaged — on single-screen data; it labels values by
// position, so a range across a screen change reads them under the
// last screen's names.

import (
	"slices"
	"sort"
	"time"

	"tiptop/internal/hpm"
)

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

// Scan is ScanWith with default execution controls.
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
		ii, ci := slices.Index(rec.Events, hpm.EventInstructions), slices.Index(rec.Events, hpm.EventCycles)
		// ipcRow is r with just the two counts a point's IPC reads, folding
		// as one refresh.
		ipcRow := func(r *RecordRow) *RecordRow {
			out := *r
			out.Counts, out.N = []uint64{at(r.Counts, ii), at(r.Counts, ci)}, 1
			return &out
		}
		m := ipcRow(&RecordRow{CPUPct: rec.Machine.CPUPct, Counts: rec.Machine.Counts})
		if machineAcc == nil {
			machine.add(rec.TimeSeconds, m)
		} else {
			now := time.Duration(rec.TimeSeconds * float64(time.Second))
			machine.addBucket(machineAcc.advance(now))
			tasks.addBucket(taskAcc.advance(now))
			machineAcc.fold([]RecordRow{*m}, ipcEvents, nil)
		}
		for i := range rec.Rows {
			r := &rec.Rows[i]
			if q.PID >= 0 && r.PID != q.PID {
				continue
			}
			if taskAcc == nil {
				tasks.add(rec.TimeSeconds, ipcRow(r))
			} else {
				taskAcc.fold([]RecordRow{*ipcRow(r)}, ipcEvents, nil)
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

// ipcEvents name the counts of a re-bucketed row.
var ipcEvents = []string{hpm.EventInstructions, hpm.EventCycles}

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
		TimeSeconds: at, CPUPct: r.CPUPct, IPC: ratio(r.Counts[0], r.Counts[1]),
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

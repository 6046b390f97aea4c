// Package history records the tiptop engine's samples over time: a
// fixed-capacity ring buffer of counter/column observations per task,
// plus roll-up aggregates (per-user, per-command and machine-wide
// totals and windowed rates) maintained incrementally.
//
// The Recorder implements core.Observer and is fed synchronously from
// the sampling goroutine, so its hot path is engineered like the
// engine's: recording one refresh costs O(rows) work and — once every
// task's ring and every aggregate entry exist — zero allocations, and
// one hashed lookup per row, of its TaskID: counts are read by position
// and each ring caches its user's and command's aggregates. All
// storage a refresh writes into (ring arrays, aggregate checkpoint
// rings, the touched-scratch slice) is preallocated or reused; only
// genuinely new tasks, users or commands allocate.
//
// Queries (Snapshot, History, PIDs) copy out under a read lock and may
// run concurrently with recording — this is what lets an HTTP daemon
// serve scrapes against a live sharded sampler.
package history

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// Options tune a Recorder.
type Options struct {
	// Capacity is the number of points each task's ring retains
	// (default 600 — twenty minutes at the paper's 2 s cadence).
	Capacity int
	// Window is the horizon of the windowed rates in the aggregates
	// (default 60 s). Checkpoints are kept for the most recent 128
	// refreshes, so a window longer than 128 refresh intervals is
	// effectively capped there; WindowMIPS always divides by the span
	// actually covered, never the nominal window.
	Window time.Duration
	// MaxSeries bounds the number of task series kept, including tasks
	// that have exited (default 8192). When exceeded, the series with
	// the oldest last observation is evicted.
	MaxSeries int
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 600
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = 8192
	}
	return o
}

// Point is one recorded observation of a task. Instr, Cycles and
// Misses are the raw counter deltas of the refresh interval — what the
// expression query engine evaluates INSTRUCTIONS/CYCLES/CACHE_MISSES
// against when querying live history instead of the durable store.
type Point struct {
	TimeSeconds float64   `json:"time_s"`
	CPUPct      float64   `json:"cpu_pct"`
	IPC         float64   `json:"ipc"`
	Values      []float64 `json:"values"` // one per screen column
	Instr       uint64    `json:"instr,omitempty"`
	Cycles      uint64    `json:"cycles,omitempty"`
	Misses      uint64    `json:"misses,omitempty"`
}

// Series is the recorded history of one task.
type Series struct {
	PID     int     `json:"pid"`
	TID     int     `json:"tid"`
	User    string  `json:"user"`
	Command string  `json:"command"`
	Alive   bool    `json:"alive"`
	Points  []Point `json:"points"` // oldest first
}

// Aggregate is a roll-up over a set of tasks (one user's, one
// command's, or the whole machine's).
type Aggregate struct {
	// Live state of the most recent refresh.
	Tasks  int     `json:"tasks"`   // tasks present
	CPUPct float64 `json:"cpu_pct"` // summed OS CPU usage
	IPC    float64 `json:"ipc"`     // Σinstructions / Σcycles of the refresh

	// Cumulative counts since recording started.
	Instructions uint64 `json:"instructions_total"`
	Cycles       uint64 `json:"cycles_total"`
	CacheMisses  uint64 `json:"cache_misses_total"`

	// Windowed rates over Options.Window.
	WindowIPC  float64 `json:"window_ipc"`  // Σinstr / Σcycles in the window
	WindowMIPS float64 `json:"window_mips"` // million instructions per second
}

// TaskSnap is the latest observation of one task in a Snapshot.
type TaskSnap struct {
	PID     int     `json:"pid"`
	TID     int     `json:"tid"`
	User    string  `json:"user"`
	Command string  `json:"command"`
	State   string  `json:"state"`
	CPUPct  float64 `json:"cpu_pct"`
	IPC     float64 `json:"ipc"`
	// Coverage is the counted fraction of the last interval (1 = exact,
	// lower = a multiplexed extrapolation). Omitted when exact.
	Coverage float64   `json:"coverage,omitempty"`
	Values   []float64 `json:"values"`
}

// Snapshot is a consistent copy of the recorder's current state.
type Snapshot struct {
	TimeSeconds float64              `json:"time_s"` // clock time of the last refresh
	Refreshes   uint64               `json:"refreshes"`
	Columns     []string             `json:"columns"` // screen column names
	Machine     Aggregate            `json:"machine"`
	Users       map[string]Aggregate `json:"users"`
	Commands    map[string]Aggregate `json:"commands"`
	Tasks       []TaskSnap           `json:"tasks"` // live tasks, sorted by pid then tid
}

// aggCheckpoints is the capacity of each aggregate's checkpoint ring
// backing the windowed rates. At the default 2 s cadence it spans over
// four minutes, comfortably more than the default 60 s window.
const aggCheckpoints = 128

// aggState is the recorder's book-keeping for one aggregate key.
type aggState struct {
	epoch uint64 // refresh that last touched this aggregate
	// Per-refresh accumulation, reset lazily when a new epoch first
	// touches the entry.
	tasks           int
	cpuPct          float64
	dInstr, dCycles float64
	instr, cycles   uint64 // cumulative
	cacheMisses     uint64
	// Checkpoint ring: cumulative totals after each refresh that
	// touched this aggregate, for windowed-rate queries. Fixed arrays:
	// writing a checkpoint never allocates.
	ckTime           [aggCheckpoints]time.Duration
	ckInstr, ckCycle [aggCheckpoints]uint64
	ckHead, ckLen    int
}

func (a *aggState) touch(epoch uint64) {
	if a.epoch != epoch {
		a.epoch = epoch
		a.tasks = 0
		a.cpuPct = 0
		a.dInstr = 0
		a.dCycles = 0
	}
}

func (a *aggState) checkpoint(now time.Duration) {
	idx := (a.ckHead + a.ckLen) % aggCheckpoints
	if a.ckLen == aggCheckpoints {
		a.ckHead = (a.ckHead + 1) % aggCheckpoints
	} else {
		a.ckLen++
	}
	a.ckTime[idx] = now
	a.ckInstr[idx] = a.instr
	a.ckCycle[idx] = a.cycles
}

// window finds the oldest checkpoint still inside [now-window, now] and
// returns the instruction/cycle/time deltas up to the newest one.
func (a *aggState) window(now, window time.Duration) (dInstr, dCycles uint64, dt time.Duration) {
	if a.ckLen < 2 {
		return 0, 0, 0
	}
	newest := (a.ckHead + a.ckLen - 1) % aggCheckpoints
	oldest := newest
	for i := 1; i < a.ckLen; i++ {
		idx := (a.ckHead + a.ckLen - 1 - i) % aggCheckpoints
		if a.ckTime[idx] < now-window {
			break
		}
		oldest = idx
	}
	if oldest == newest {
		return 0, 0, 0
	}
	return a.ckInstr[newest] - a.ckInstr[oldest],
		a.ckCycle[newest] - a.ckCycle[oldest],
		a.ckTime[newest] - a.ckTime[oldest]
}

func (a *aggState) aggregate(live bool, now, window time.Duration) Aggregate {
	out := Aggregate{
		Instructions: a.instr,
		Cycles:       a.cycles,
		CacheMisses:  a.cacheMisses,
	}
	if live {
		out.Tasks = a.tasks
		out.CPUPct = a.cpuPct
		if a.dCycles > 0 {
			out.IPC = a.dInstr / a.dCycles
		}
	}
	dInstr, dCycles, dt := a.window(now, window)
	if dCycles > 0 {
		out.WindowIPC = float64(dInstr) / float64(dCycles)
	}
	if dt > 0 {
		out.WindowMIPS = float64(dInstr) / dt.Seconds() / 1e6
	}
	return out
}

// point holds the scalars of one recorded observation.
type point struct {
	t                     time.Duration
	cpu                   float64
	instr, cycles, misses uint64 // per-interval counter deltas, for expression queries
}

// ipc is the point's instructions per cycle, as core.Row.IPC computes it.
func (p *point) ipc() float64 {
	if p.cycles == 0 {
		return 0
	}
	return float64(p.instr) / float64(p.cycles)
}

// ring is the fixed-capacity time series of one task: the per-point
// scalars in one array and the value matrix in another (capacity ×
// columns, flat), so a push after warm-up writes in place and never
// allocates.
type ring struct {
	id        hpm.TaskID
	user      string
	comm      string
	state     string
	coverage  float64       // counted fraction of the latest interval
	start     time.Duration // TaskInfo.StartTime, the pid-reuse detector
	lastEpoch uint64
	// userAgg and commAgg are the aggregates the task's deltas fold
	// into, those of aggUser and aggComm — the user and command of its
	// latest row, where user and comm label the series as first seen —
	// so a refresh that finds both unchanged hashes neither string.
	aggUser, aggComm string
	userAgg, commAgg *aggState
	ncols            int
	points           []point
	vals             []float64 // len = len(points) * ncols, row-major
	head, n          int
}

func (rg *ring) push(p point, values []float64, ncols int) {
	if ncols != rg.ncols {
		// The screen's column count was learned after this ring was
		// created (a first refresh with no rows): rebuild the value
		// matrix once and restart the series.
		rg.ncols = ncols
		rg.vals = make([]float64, len(rg.points)*ncols)
		rg.head, rg.n = 0, 0
	}
	c := len(rg.points)
	idx := (rg.head + rg.n) % c
	if rg.n == c {
		rg.head = (rg.head + 1) % c
	} else {
		rg.n++
	}
	rg.points[idx] = p
	copy(rg.vals[idx*ncols:(idx+1)*ncols], values)
}

// Recorder accumulates history and aggregates from observed samples.
// It implements core.Observer; queries are safe from other goroutines.
type Recorder struct {
	mu        sync.RWMutex
	opt       Options
	columns   []string
	ncols     int
	epoch     uint64
	refreshes uint64
	lastTime  time.Duration
	series    map[hpm.TaskID]*ring
	users     map[string]*aggState
	commands  map[string]*aggState
	machine   aggState
	// touched collects the aggregates updated by the current refresh so
	// cumulative totals and checkpoints are folded in once per entry;
	// reused across refreshes.
	touched []*aggState
	// tee receives every observed sample after the recorder's own fold,
	// outside the recorder lock — the hook a durable store attaches by.
	tee core.Observer
}

// New creates a Recorder. Column names may be set later (SetColumns);
// recording works without them, value vectors are sized from the rows.
func New(opt Options) *Recorder {
	return &Recorder{
		opt:      opt.withDefaults(),
		ncols:    -1,
		series:   make(map[hpm.TaskID]*ring),
		users:    make(map[string]*aggState),
		commands: make(map[string]*aggState),
	}
}

// SetColumns records the screen's column names for snapshots and
// exports, and fixes the width of the per-point value vectors.
// Idempotent.
func (r *Recorder) SetColumns(names []string) {
	r.mu.Lock()
	r.columns = append([]string(nil), names...)
	if r.ncols < 0 {
		r.ncols = len(names)
	}
	tee := r.tee
	r.mu.Unlock()
	if cs, ok := tee.(columnSetter); ok {
		cs.SetColumns(names)
	}
}

// columnSetter is implemented by tee targets that label their records
// with the screen's column names (store.Store does).
type columnSetter interface{ SetColumns([]string) }

// Capacity returns the per-task ring capacity.
func (r *Recorder) Capacity() int { return r.opt.Capacity }

// Tee forwards every subsequently observed sample to o after the
// recorder's own fold — the attachment point for a durable store
// (internal/store) or any other secondary observer. The tee runs on the
// sampling goroutine but outside the recorder's lock, so a slow tee
// (a disk write) delays the next refresh, not concurrent queries. Like
// Subscribe, not safe to call concurrently with Observe; a nil o
// detaches. The tee gets the sample on core.Observer's terms: read-only.
func (r *Recorder) Tee(o core.Observer) {
	r.tee = o
	r.mu.RLock()
	cols := r.columns
	r.mu.RUnlock()
	if cs, ok := o.(columnSetter); ok && len(cols) > 0 {
		cs.SetColumns(cols)
	}
}

// Observe records one sample. It is the recorder's hot path: O(rows)
// and allocation-free once rings and aggregate entries exist.
func (r *Recorder) Observe(s *core.Sample) {
	r.observe(s)
	if r.tee != nil {
		r.tee.Observe(s)
	}
}

func (r *Recorder) observe(s *core.Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch++
	r.refreshes++
	r.lastTime = s.Time
	r.touched = r.touched[:0]

	for i := range s.Rows {
		row := &s.Rows[i]
		if r.ncols < 0 {
			r.ncols = len(row.Values)
		}
		rg := r.series[row.Info.ID]
		switch {
		case rg == nil:
			rg = r.admit(row.Info)
		case rg.start != row.Info.StartTime:
			// The OS recycled this TaskID for a new process: restart
			// the series in place instead of splicing two tasks'
			// histories under the old user/command labels.
			rg.head, rg.n = 0, 0
			rg.start = row.Info.StartTime
			rg.user, rg.comm = row.Info.User, row.Info.Comm
			r.resolveAggs(rg, row.Info)
		case rg.aggUser != row.Info.User || rg.aggComm != row.Info.Comm:
			// Same task, new credentials or an exec: its deltas now
			// count towards the new user's and command's aggregates.
			r.resolveAggs(rg, row.Info)
		}
		rg.lastEpoch = r.epoch
		rg.state = row.Info.State
		rg.coverage = row.Coverage
		p := point{t: s.Time, cpu: row.CPUPct}
		p.instr, p.cycles, p.misses = row.Basics()
		rg.push(p, row.Values, r.ncols)
		r.fold(&r.machine, &p)
		r.fold(rg.userAgg, &p)
		r.fold(rg.commAgg, &p)
	}

	// One windowed-rate checkpoint per aggregate the refresh touched.
	for _, a := range r.touched {
		a.checkpoint(s.Time)
	}
}

func (r *Recorder) fold(a *aggState, p *point) {
	if a.epoch != r.epoch {
		a.touch(r.epoch)
		r.touched = append(r.touched, a)
	}
	a.tasks++
	a.cpuPct += p.cpu
	a.dInstr += float64(p.instr)
	a.dCycles += float64(p.cycles)
	a.instr += p.instr
	a.cycles += p.cycles
	a.cacheMisses += p.misses
}

// admit creates the ring for a newly seen task, evicting the stalest
// series when the retention bound is hit.
func (r *Recorder) admit(info core.TaskInfo) *ring {
	if len(r.series) >= r.opt.MaxSeries {
		r.evict()
	}
	c := r.opt.Capacity
	ncols := max(r.ncols, 0)
	rg := &ring{
		id:     info.ID,
		user:   info.User,
		comm:   info.Comm,
		start:  info.StartTime,
		ncols:  ncols,
		points: make([]point, c),
		vals:   make([]float64, c*ncols),
	}
	r.resolveAggs(rg, info)
	r.series[info.ID] = rg
	return rg
}

// resolveAggs points the ring at the aggregates of the task's current
// user and command, creating the entry of one first seen.
func (r *Recorder) resolveAggs(rg *ring, info core.TaskInfo) {
	rg.aggUser, rg.aggComm = info.User, info.Comm
	rg.userAgg, rg.commAgg = aggOf(r.users, info.User), aggOf(r.commands, info.Comm)
}

func aggOf(m map[string]*aggState, key string) *aggState {
	a := m[key]
	if a == nil {
		a = &aggState{}
		m[key] = a
	}
	return a
}

// evict drops the series with the oldest last observation, preferring
// exited tasks (a live task is only evicted when every retained series
// is live, i.e. MaxSeries is genuinely too small for the machine).
func (r *Recorder) evict() {
	var victim hpm.TaskID
	var victimEpoch uint64
	found := false
	for id, rg := range r.series {
		if rg.lastEpoch == r.epoch {
			continue // live this refresh
		}
		if !found || rg.lastEpoch < victimEpoch {
			victim, victimEpoch, found = id, rg.lastEpoch, true
		}
	}
	if !found {
		for id, rg := range r.series {
			if !found || rg.lastEpoch < victimEpoch {
				victim, victimEpoch, found = id, rg.lastEpoch, true
			}
		}
	}
	if found {
		delete(r.series, victim)
	}
}

// Snapshot copies out the recorder's current state.
func (r *Recorder) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := &Snapshot{
		TimeSeconds: r.lastTime.Seconds(),
		Refreshes:   r.refreshes,
		Columns:     append([]string(nil), r.columns...),
		Machine:     r.machine.aggregate(r.machine.epoch == r.epoch, r.lastTime, r.opt.Window),
		Users:       make(map[string]Aggregate, len(r.users)),
		Commands:    make(map[string]Aggregate, len(r.commands)),
	}
	for u, a := range r.users {
		snap.Users[u] = a.aggregate(a.epoch == r.epoch, r.lastTime, r.opt.Window)
	}
	for c, a := range r.commands {
		snap.Commands[c] = a.aggregate(a.epoch == r.epoch, r.lastTime, r.opt.Window)
	}
	if r.machine.epoch != r.epoch || r.machine.tasks == 0 {
		return snap // nothing observed, or an empty last refresh
	}
	// The last refresh's row count bounds the live tasks. They are put
	// in order as ring pointers (cheaper to move than TaskSnaps), and
	// one array backs every task's Values (each capped to its own run,
	// so a consumer's append cannot reach a neighbour's).
	live := make([]*ring, 0, r.machine.tasks)
	for _, rg := range r.series {
		if rg.lastEpoch == r.epoch && rg.n > 0 {
			live = append(live, rg)
		}
	}
	slices.SortFunc(live, func(a, b *ring) int {
		if c := cmp.Compare(a.id.PID, b.id.PID); c != 0 {
			return c
		}
		return cmp.Compare(a.id.TID, b.id.TID)
	})
	ncols := max(r.ncols, 0)
	snap.Tasks = make([]TaskSnap, len(live))
	values := make([]float64, 0, len(live)*ncols)
	for i, rg := range live {
		last := (rg.head + rg.n - 1) % len(rg.points)
		t := &snap.Tasks[i]
		*t = TaskSnap{
			PID:      rg.id.PID,
			TID:      rg.id.TID,
			User:     rg.user,
			Command:  rg.comm,
			State:    rg.state,
			CPUPct:   rg.points[last].cpu,
			IPC:      rg.points[last].ipc(),
			Coverage: core.ElideCoverage(rg.coverage),
		}
		if ncols > 0 {
			lo := len(values)
			values = append(values, rg.vals[last*ncols:(last+1)*ncols]...)
			t.Values = values[lo:len(values):len(values)]
		}
	}
	return snap
}

// History returns copies of every recorded series whose PID matches,
// sorted by TID — one entry for process-scope recording, several under
// per-thread monitoring. Nil when the PID was never observed.
func (r *Recorder) History(pid int) []Series {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Series
	for id, rg := range r.series {
		if id.PID != pid {
			continue
		}
		out = append(out, r.copySeries(rg))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

func (r *Recorder) copySeries(rg *ring) Series {
	ncols := r.ncols
	if ncols < 0 {
		ncols = 0
	}
	s := Series{
		PID:     rg.id.PID,
		TID:     rg.id.TID,
		User:    rg.user,
		Command: rg.comm,
		Alive:   rg.lastEpoch == r.epoch,
		Points:  make([]Point, 0, rg.n),
	}
	for i := 0; i < rg.n; i++ {
		idx := (rg.head + i) % len(rg.points)
		p := &rg.points[idx]
		s.Points = append(s.Points, Point{
			TimeSeconds: p.t.Seconds(),
			CPUPct:      p.cpu,
			IPC:         p.ipc(),
			Values:      append([]float64(nil), rg.vals[idx*ncols:(idx+1)*ncols]...),
			Instr:       p.instr,
			Cycles:      p.cycles,
			Misses:      p.misses,
		})
	}
	return s
}

// AllSeries copies out every recorded series, sorted by PID then TID —
// the snapshot the expression query engine evaluates against when its
// backend is live history rather than the durable store.
func (r *Recorder) AllSeries() []Series {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Series, 0, len(r.series))
	for _, rg := range r.series {
		out = append(out, r.copySeries(rg))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// Columns returns the screen column names in force, as set by
// SetColumns — the names a query expression can reference in addition
// to the raw counters.
func (r *Recorder) Columns() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.columns...)
}

// PIDs lists the recorded process IDs, sorted.
func (r *Recorder) PIDs() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[int]bool, len(r.series))
	for id := range r.series {
		seen[id.PID] = true
	}
	out := make([]int, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

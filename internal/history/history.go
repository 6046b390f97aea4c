// Package history records the tiptop engine's samples over time: a ring
// of counter/column observations per task, packed into chunks of 64
// points (ring.go), plus roll-up aggregates (per-user, per-command and
// machine-wide totals and windowed rates) maintained incrementally. A
// recorder teed into a Keeper (a durable store) packs no points: the
// keeper holds every refresh already, and History reads them back from
// it.
//
// The Recorder implements core.Observer and is fed synchronously from
// the sampling goroutine, so its hot path is engineered like the
// engine's: recording one refresh costs O(rows) work and one hashed
// lookup per row, of its TaskID: counts are read by position and each
// ring caches its user's and command's aggregates. A ring holds what its
// task recorded, not what Capacity allows: a growing ring allocates one
// buffer per 64 points, and once it has reached Capacity it writes in
// the buffers it has — from then on, and for the aggregate checkpoint
// rings and the touched-scratch slice from the start, a refresh
// allocates nothing. Only new tasks, users or commands, and rings still
// filling, allocate.
//
// Queries (View, Snapshot, History, PIDs) copy out under a read lock and
// may run concurrently with recording — this is what lets an HTTP daemon
// serve scrapes against a live sampler. View reads each ring's newest
// point, which is kept unpacked; History and AllSeries decode, or
// History scans the keeper outside the lock.
package history

import (
	"cmp"
	"math"
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
	// (default 600 — twenty minutes at the paper's 2 s cadence). It bounds
	// how far back a ring reaches, not what a task costs before then.
	// Teed into a Keeper, the recorder keeps no points, and Capacity is
	// the number of its newest refreshes History reads back.
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

// KeyedAggregate is one user's or command's Aggregate in a View.
type KeyedAggregate struct {
	Key string
	Aggregate
}

// View is the recorder's current state copied out positionally into
// storage the caller keeps between calls: what a Snapshot holds, the
// keyed aggregates as key-sorted slices instead of maps. Refilled by
// the recorder that filled it, a View reuses its slices and — once they
// have grown to the machine's size — allocates nothing.
type View struct {
	TimeSeconds     float64
	Refreshes       uint64
	Columns         []string // the recorder's own slice: read-only
	Machine         Aggregate
	Users, Commands []KeyedAggregate // sorted by Key
	Tasks           []TaskSnap       // live tasks by pid then tid; Values share one array
	// Gen changes whenever the keys of Users or Commands, or the
	// identity, order or labels (PID, TID, User, Command) of Tasks may
	// have: while it stands, a consumer may keep what it derived from
	// those — rendered label blocks — across refills.
	Gen    uint64
	values []float64
}

// Snapshot converts the view into a Snapshot that shares none of its
// storage.
func (v *View) Snapshot() *Snapshot {
	snap := &Snapshot{
		TimeSeconds: v.TimeSeconds,
		Refreshes:   v.Refreshes,
		Columns:     append([]string(nil), v.Columns...),
		Machine:     v.Machine,
		Users:       make(map[string]Aggregate, len(v.Users)),
		Commands:    make(map[string]Aggregate, len(v.Commands)),
	}
	for _, u := range v.Users {
		snap.Users[u.Key] = u.Aggregate
	}
	for _, c := range v.Commands {
		snap.Commands[c.Key] = c.Aggregate
	}
	// One array backs every task's Values (each capped to its own run,
	// so a consumer's append cannot reach a neighbour's). No live task
	// leaves Tasks nil.
	snap.Tasks = append([]TaskSnap(nil), v.Tasks...)
	values := make([]float64, 0, len(v.values))
	for i := range snap.Tasks {
		if t := &snap.Tasks[i]; len(t.Values) > 0 {
			lo := len(values)
			values = append(values, t.Values...)
			t.Values = values[lo:len(values):len(values)]
		}
	}
	return snap
}

// aggCheckpoints is the capacity of each aggregate's checkpoint ring
// backing the windowed rates. At the default 2 s cadence it spans over
// four minutes, comfortably more than the default 60 s window.
const aggCheckpoints = 128

// aggState is the recorder's book-keeping for one aggregate key.
type aggState struct {
	refs  int    // rings folding into this aggregate; it is dropped with the last
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

// window finds the oldest checkpoint still inside [now-window, now] —
// by bisection: checkpoint times never decrease along the ring — and
// returns the instruction/cycle/time deltas up to the newest one.
func (a *aggState) window(now, window time.Duration) (dInstr, dCycles uint64, dt time.Duration) {
	lo, hi := 0, a.ckLen-1 // positions from the oldest checkpoint; hi is the newest
	for lo < hi {
		mid := (lo + hi) / 2
		if a.ckTime[(a.ckHead+mid)%aggCheckpoints] < now-window {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= a.ckLen-1 {
		return 0, 0, 0 // fewer than two checkpoints in the window
	}
	oldest, newest := (a.ckHead+lo)%aggCheckpoints, (a.ckHead+a.ckLen-1)%aggCheckpoints
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

// Keeper is a tee that keeps every sample it observes and replays a
// task's observations on request: a durable store. A recorder teed into
// one packs no points; History reads them back from the keeper.
type Keeper interface {
	core.Observer
	// LastTime is the keeper's clock at the newest sample it kept.
	LastTime() time.Duration
	// Replay calls fn with every kept observation of a task of pid whose
	// time on the keeper's clock, to the millisecond, lies in [from, to],
	// oldest first. The point is scratch, and its Values are the columns
	// as kept; fn copies what it keeps.
	Replay(pid int, from, to time.Duration, fn func(tid int, p *Point)) error
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
	// keyGen counts changes to the key sets of users and commands,
	// ringGen changes to which rings exist and how one is labelled
	// (admit, evict, pid reuse): what View's kept order is checked by.
	keyGen, ringGen uint64
	// orphans lists the aggregates the current refresh left without a
	// ring; those still without one when it ends are dropped.
	orphans []orphan
	order   viewOrder
	// tee receives every observed sample after or beside the recorder's
	// own fold, outside the recorder lock — the hook a durable store
	// attaches by.
	// keeper is tee when it is a Keeper: then no ring packs points.
	tee    core.Observer
	keeper Keeper
	// times is the keeper's clock after each of the newest Capacity
	// refreshes it kept, by refresh number modulo Capacity; timed is the
	// newest such refresh and teedAt the first the keeper observed.
	times         []time.Duration
	timed, teedAt uint64
	// aside tees teeing, a sample large enough to split (core.Split),
	// on a helper goroutine beside the fold, and marks teed done. It is
	// bound once in New: a go statement over a method value allocates.
	// joining is set from Start until Join. teeing and joining belong
	// to the sampling goroutine.
	aside   func()
	teeing  *core.Sample
	teed    sync.WaitGroup
	joining bool
}

// New creates a Recorder. Column names may be set later (SetColumns);
// recording works without them, value vectors are sized from the rows.
func New(opt Options) *Recorder {
	r := &Recorder{
		opt:      opt.withDefaults(),
		ncols:    -1,
		series:   make(map[hpm.TaskID]*ring),
		users:    make(map[string]*aggState),
		commands: make(map[string]*aggState),
	}
	r.aside = func() {
		r.tee.Observe(r.teeing)
		r.teed.Done()
	}
	return r
}

// SetColumns records the screen's column names for snapshots and
// exports, and sets the width of the per-point value vectors. A list
// that differs from the one in force, or from the width learned from
// the rows before any list was set (a followed daemon restarted on
// another screen), restarts every ring at the new width: a recorded
// value is only ever read under the name it was recorded under. The
// aggregates, and a tee'd store, keep what came before. Idempotent.
func (r *Recorder) SetColumns(names []string) {
	r.mu.Lock()
	changed := r.ncols >= 0 && len(names) != r.ncols || r.columns != nil && !slices.Equal(r.columns, names)
	r.columns, r.ncols = append([]string(nil), names...), len(names)
	if changed {
		for _, rg := range r.series {
			rg.restart(r.ncols)
			rg.since = r.epoch + 1
		}
		r.ringGen++
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

// Capacity returns the per-task ring capacity: the refreshes History
// reaches back.
func (r *Recorder) Capacity() int { return r.opt.Capacity }

// Tee forwards every subsequently observed sample to o — the attachment
// point for a durable store (internal/store) or any other secondary
// observer. The tee runs outside the recorder's lock, so a slow tee (a
// disk write) delays the next refresh, not concurrent queries: after the
// recorder's own fold on the sampling goroutine, or, for a sample large
// enough to split (core.Split), on a helper goroutine that Start leaves
// running beside the fold and whatever its caller reads of the sample
// next, until Join. Observe joins before it returns (a followed
// daemon's step observes); the facade's Monitor starts its recorders and
// joins them once it has built its public rows. Like Subscribe, not
// safe to call concurrently with Observe; it joins a tee still running
// first. A nil o detaches. The tee gets the sample on core.Observer's
// terms: read-only.
//
// A Keeper takes over the rings' points: the rings let go of what they
// packed and pack nothing while it is attached, and History reads the
// refreshes the keeper observed from it. Replacing or detaching it
// starts the rings afresh.
func (r *Recorder) Tee(o core.Observer) {
	r.Join()
	k, _ := o.(Keeper)
	r.mu.Lock()
	if k != r.keeper {
		for _, rg := range r.series {
			rg.drop()
		}
		r.keeper, r.teedAt = k, r.epoch+1
		if k != nil && r.times == nil {
			r.times = make([]time.Duration, r.opt.Capacity)
		}
	}
	r.tee = o
	cols := r.columns
	r.mu.Unlock()
	if cs, ok := o.(columnSetter); ok && len(cols) > 0 {
		cs.SetColumns(cols)
	}
}

// Observe records one sample and returns once the tee has kept it:
// Start, then Join. It implements core.Observer for a caller that has
// nothing of its own to do beside the tee.
func (r *Recorder) Observe(s *core.Sample) {
	r.Start(s)
	r.Join()
}

// Start records one sample. It is the recorder's hot path: O(rows) and
// allocation-free once aggregate entries exist and rings have filled —
// from a task's second refresh on when teed into a Keeper. A large
// sample's tee runs beside the fold and may still run when Start
// returns (see Tee); the two share only the read-only sample. The
// sample's owner calls Join before it hands the sample on. Start first
// joins a tee still running, so at most one is in flight and the tee
// sees the samples in order.
func (r *Recorder) Start(s *core.Sample) {
	r.Join()
	r.joining = true
	switch {
	case r.tee == nil:
		r.observe(s)
	case core.Split(len(s.Rows)):
		r.teeing = s
		r.teed.Add(1)
		go r.aside()
		r.observe(s)
	default:
		r.observe(s)
		r.tee.Observe(s)
	}
}

// Join waits for the tee of the sample Start recorded, then notes the
// keeper's clock for History. A no-op when no Start is outstanding.
func (r *Recorder) Join() {
	if !r.joining {
		return
	}
	r.joining = false
	r.teed.Wait()
	r.teeing = nil
	if r.keeper != nil {
		t := r.keeper.LastTime()
		r.mu.Lock()
		r.times[r.epoch%uint64(len(r.times))] = t
		r.timed = r.epoch
		r.mu.Unlock()
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
			rg.restart(r.ncols)
			rg.since = r.epoch
			rg.start = row.Info.StartTime
			rg.user, rg.comm = row.Info.User, row.Info.Comm
			r.ringGen++
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
		if r.keeper == nil {
			rg.push(p, row.Values, r.opt.Capacity)
		} else {
			rg.hold(p, row.Values)
		}
		r.fold(&r.machine, &p)
		r.fold(rg.userAgg, &p)
		r.fold(rg.commAgg, &p)
	}

	// One windowed-rate checkpoint per aggregate the refresh touched.
	for _, a := range r.touched {
		a.checkpoint(s.Time)
	}
	// An aggregate lives as long as a ring in series folds into it (a
	// dead task's ring still does). Dropping waits for the refresh to
	// end, so one that a later row claimed again is kept as it is.
	for _, o := range r.orphans {
		if a := o.m[o.key]; a != nil && a.refs == 0 {
			delete(o.m, o.key)
			r.keyGen++
		}
	}
	r.orphans = r.orphans[:0]
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
	rg := &ring{
		id:       info.ID,
		user:     info.User,
		comm:     info.Comm,
		start:    info.StartTime,
		since:    r.epoch,
		lastVals: make([]float64, r.ncols), // observe learned the width before it admits
	}
	r.resolveAggs(rg, info)
	r.series[info.ID] = rg
	r.ringGen++
	return rg
}

// resolveAggs points the ring at the aggregates of the task's current
// user and command, creating the entry of one first seen and letting go
// of the ones it folded into before.
func (r *Recorder) resolveAggs(rg *ring, info core.TaskInfo) {
	r.release(rg)
	rg.aggUser, rg.aggComm = info.User, info.Comm
	rg.userAgg, rg.commAgg = r.aggOf(r.users, info.User), r.aggOf(r.commands, info.Comm)
}

func (r *Recorder) aggOf(m map[string]*aggState, key string) *aggState {
	a := m[key]
	if a == nil {
		a = &aggState{}
		m[key] = a
		r.keyGen++
	}
	a.refs++
	return a
}

// orphan names an aggregate whose last ring let go of it.
type orphan struct {
	m   map[string]*aggState
	key string
}

// release ends the ring's hold on its aggregates (a newly admitted ring
// has none yet).
func (r *Recorder) release(rg *ring) {
	if rg.userAgg == nil {
		return
	}
	if rg.userAgg.refs--; rg.userAgg.refs == 0 {
		r.orphans = append(r.orphans, orphan{r.users, rg.aggUser})
	}
	if rg.commAgg.refs--; rg.commAgg.refs == 0 {
		r.orphans = append(r.orphans, orphan{r.commands, rg.aggComm})
	}
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
		r.release(r.series[victim])
		delete(r.series, victim)
		r.ringGen++
	}
}

// viewOrder is what View keeps between calls: the aggregates in key
// order and the live rings in pid, tid order, rebuilt only when the
// recorder's generations or the liveness check say they changed. View
// runs under the recorder's read lock, which does not keep a second
// View out; mu does.
type viewOrder struct {
	mu              sync.Mutex
	keyGen, ringGen uint64 // the recorder generations the lists were built at
	gen             uint64 // rebuilds of either so far: View.Gen
	users, commands []keyedAgg
	live            []*ring
}

type keyedAgg struct {
	key string
	agg *aggState
}

func sortedAggs(dst []keyedAgg, m map[string]*aggState) []keyedAgg {
	for k, a := range m {
		dst = append(dst, keyedAgg{k, a})
	}
	slices.SortFunc(dst, func(a, b keyedAgg) int { return cmp.Compare(a.key, b.key) })
	return dst
}

// View copies the recorder's current state out into v, reusing v's
// storage. The read lock is held for the copy only.
func (r *Recorder) View(v *View) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o := &r.order
	o.mu.Lock()
	defer o.mu.Unlock()

	if o.keyGen != r.keyGen {
		o.users, o.commands = sortedAggs(o.users[:0], r.users), sortedAggs(o.commands[:0], r.commands)
		o.keyGen = r.keyGen
		o.gen++
	}
	// The kept order stands while no ring was admitted, evicted or
	// relabelled, it holds as many rings as the last refresh had rows and
	// each is live: then it is the live set. An exit or a return after a
	// missed refresh raises no event; the count or the liveness shows it.
	live := 0
	if r.machine.epoch == r.epoch {
		live = r.machine.tasks
	}
	stands := o.ringGen == r.ringGen && len(o.live) == live
	for i := 0; stands && i < len(o.live); i++ {
		stands = o.live[i].lastEpoch == r.epoch
	}
	if !stands {
		o.live = o.live[:0]
		for _, rg := range r.series {
			if rg.lastEpoch == r.epoch && rg.since <= rg.lastEpoch {
				o.live = append(o.live, rg)
			}
		}
		slices.SortFunc(o.live, func(a, b *ring) int {
			if c := cmp.Compare(a.id.PID, b.id.PID); c != 0 {
				return c
			}
			return cmp.Compare(a.id.TID, b.id.TID)
		})
		o.ringGen = r.ringGen
		o.gen++
	}

	v.TimeSeconds, v.Refreshes, v.Columns = r.lastTime.Seconds(), r.refreshes, r.columns
	v.Gen, v.Machine = o.gen, r.aggregate(&r.machine)
	v.Users, v.Commands = slices.Grow(v.Users[:0], len(o.users)), slices.Grow(v.Commands[:0], len(o.commands))
	for _, k := range o.users {
		v.Users = append(v.Users, KeyedAggregate{k.key, r.aggregate(k.agg)})
	}
	for _, k := range o.commands {
		v.Commands = append(v.Commands, KeyedAggregate{k.key, r.aggregate(k.agg)})
	}
	ncols := max(r.ncols, 0)
	v.Tasks = slices.Grow(v.Tasks[:0], len(o.live))[:len(o.live)]
	v.values = slices.Grow(v.values[:0], len(o.live)*ncols)
	for i, rg := range o.live {
		t := &v.Tasks[i]
		*t = TaskSnap{
			PID:      rg.id.PID,
			TID:      rg.id.TID,
			User:     rg.user,
			Command:  rg.comm,
			State:    rg.state,
			CPUPct:   rg.last.cpu,
			IPC:      rg.last.ipc(),
			Coverage: core.ElideCoverage(rg.coverage),
		}
		if ncols > 0 {
			lo := len(v.values)
			v.values = append(v.values, rg.lastVals...)
			t.Values = v.values[lo:len(v.values):len(v.values)]
		}
	}
}

func (r *Recorder) aggregate(a *aggState) Aggregate {
	return a.aggregate(a.epoch == r.epoch, r.lastTime, r.opt.Window)
}

// Snapshot copies out the recorder's current state.
func (r *Recorder) Snapshot() *Snapshot {
	var v View
	r.View(&v)
	return v.Snapshot()
}

// History returns copies of every recorded series whose PID matches,
// sorted by TID — one entry for process-scope recording, several under
// per-thread monitoring. Nil when the PID was never observed or its
// series was evicted (MaxSeries).
//
// Teed into a Keeper, the points are the keeper's, read back outside the
// recorder's lock: a task's observations among the newest Capacity
// refreshes this recorder observed since the keeper was attached, from
// the first of its current run (a reused pid answers for its newest
// task), timed on the keeper's clock. A task last seen before them has
// no series. A scan the keeper fails is History's error, with no series.
func (r *Recorder) History(pid int) ([]Series, error) {
	r.mu.RLock()
	var out []Series
	var spans []span
	for id, rg := range r.series {
		if id.PID != pid {
			continue
		}
		if r.keeper != nil {
			sp, ok := r.window(rg)
			if !ok {
				continue
			}
			spans = append(spans, sp)
		}
		out = append(out, r.copySeries(rg))
	}
	keeper, ncols := r.keeper, max(r.ncols, 0)
	r.mu.RUnlock()
	if len(spans) > 0 {
		if err := replay(keeper, pid, out, spans, ncols); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out, nil
}

// span is the part of one task's series History reads from the keeper:
// its tid and first and last millisecond on the keeper's clock.
type span struct {
	tid      int
	from, to int64
}

// window is the span of rg's current run among the newest Capacity
// refreshes the keeper kept. Not ok when rg was last seen before them.
func (r *Recorder) window(rg *ring) (span, bool) {
	c := uint64(len(r.times))
	lo, hi := max(rg.since, r.teedAt), min(rg.lastEpoch, r.timed)
	if r.timed >= c {
		lo = max(lo, r.timed-c+1)
	}
	return span{rg.id.TID, r.times[lo%c].Milliseconds(), r.times[hi%c].Milliseconds()}, lo <= hi
}

// replay appends to each out[i] the keeper's observations of pid inside
// spans[i], with ncols values as push would have packed them: 0 for a
// column the kept row lacks.
func replay(k Keeper, pid int, out []Series, spans []span, ncols int) error {
	from, to := spans[0].from, spans[0].to
	for _, sp := range spans[1:] {
		from, to = min(from, sp.from), max(to, sp.to)
	}
	return k.Replay(pid, time.Duration(from)*time.Millisecond, time.Duration(to)*time.Millisecond, func(tid int, p *Point) {
		ms := int64(math.Round(p.TimeSeconds * 1000))
		for i, sp := range spans {
			if sp.tid == tid && sp.from <= ms && ms <= sp.to {
				pt, q := *p, point{instr: p.Instr, cycles: p.Cycles}
				pt.IPC, pt.Values = q.ipc(), nil
				if ncols > 0 {
					pt.Values = make([]float64, ncols)
					copy(pt.Values, p.Values)
				}
				out[i].Points = append(out[i].Points, pt)
			}
		}
	})
}

func (r *Recorder) copySeries(rg *ring) Series {
	return Series{
		PID:     rg.id.PID,
		TID:     rg.id.TID,
		User:    rg.user,
		Command: rg.comm,
		Alive:   rg.lastEpoch == r.epoch,
		Points:  rg.points(r.opt.Capacity),
	}
}

// AllSeries copies out every series the rings hold, sorted by PID then
// TID — the snapshot the expression query engine evaluates against when
// its backend is a store-less recorder's live history. Teed into a
// Keeper, the rings hold no points.
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

// PIDs lists the recorded process IDs History answers for, sorted.
func (r *Recorder) PIDs() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[int]bool, len(r.series))
	for id, rg := range r.series {
		if r.keeper == nil {
			seen[id.PID] = true
		} else if _, ok := r.window(rg); ok {
			seen[id.PID] = true
		}
	}
	out := make([]int, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

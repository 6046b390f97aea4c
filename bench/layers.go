package main

// The layer rig of the traced pass: the sampling side of the pipeline
// composed from the internal packages, so that every boundary can be
// wrapped from outside — a counting hpm.Backend below and above
// mux.Wrap, and timing core.Observers around the recorder and (through
// its tee) the store. The facade hides these seams; the end-to-end
// numbers never come from here.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/history"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	simload "tiptop/internal/sim/workload"
	"tiptop/internal/store"
)

// countingBackend counts and times the calls that cross one side of the
// mux: exact counts (the syscall budget on a real PMU) and the summed
// time inside them. Reads arrive from all shards at once, so the time
// is a sum over goroutines, not wall time.
type countingBackend struct {
	hpm.Backend
	attaches, closes, reads atomic.Int64
	nanos, readNanos        atomic.Int64
}

func (b *countingBackend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	t := time.Now()
	c, err := b.Backend.Attach(task, events)
	b.nanos.Add(int64(time.Since(t)))
	b.attaches.Add(1)
	if err != nil {
		return nil, err
	}
	cc := &countingCounter{TaskCounter: c, b: b}
	if r, ok := c.(hpm.CountReader); ok {
		return &countingReader{cc, r}, nil
	}
	return cc, nil
}

type countingCounter struct {
	hpm.TaskCounter
	b *countingBackend
}

func (c *countingCounter) note(t time.Time) {
	d := int64(time.Since(t))
	c.b.reads.Add(1)
	c.b.nanos.Add(d)
	c.b.readNanos.Add(d)
}

func (c *countingCounter) Read() ([]hpm.Count, error) {
	defer c.note(time.Now())
	return c.TaskCounter.Read()
}

func (c *countingCounter) Close() error {
	t := time.Now()
	err := c.TaskCounter.Close()
	c.b.nanos.Add(int64(time.Since(t)))
	c.b.closes.Add(1)
	return err
}

// countingReader forwards the allocation-free read path the engine
// prefers, so wrapping does not change which path is measured.
type countingReader struct {
	*countingCounter
	r hpm.CountReader
}

func (c *countingReader) ReadInto(dst []hpm.Count) ([]hpm.Count, error) {
	defer c.note(time.Now())
	return c.r.ReadInto(dst)
}

// timedObserver times one core.Observer and counts its allocations.
// inner, when set, is the observer this one's target tees into: its
// time and allocations are subtracted to leave the target's own.
type timedObserver struct {
	target core.Observer
	inner  *timedObserver
	nanos  series // per Observe call, ms, children included
	allocs uint64
}

func (o *timedObserver) Observe(s *core.Sample) {
	a, t := heapAllocs(), time.Now()
	o.target.Observe(s)
	o.nanos.add(time.Since(t))
	o.allocs += heapAllocs() - a
}

// SetColumns forwards the column names a recorder hands its tee.
func (o *timedObserver) SetColumns(names []string) {
	if cs, ok := o.target.(interface{ SetColumns([]string) }); ok {
		cs.SetColumns(names)
	}
}

// self returns the per-call times with the inner observer's removed.
func (o *timedObserver) self() series {
	if o.inner == nil {
		return o.nanos
	}
	out := make(series, len(o.nanos))
	for i := range out {
		out[i] = o.nanos[i] - o.inner.nanos[i]
	}
	return out
}

// layerRig is the wrapped sampling side.
type layerRig struct {
	k            *sched.Kernel
	below, above *countingBackend
	sess         *core.Session
	rec, st      *timedObserver
	store        *store.Store
	update       series
	updateAllocs uint64
	rows         int
	coverageSum  float64
	last         *core.Sample
}

// newLayerRig builds the workload's scenario and session from the
// internal packages — the same jobs, machine, screen and store options
// as the facade rig — with the given shard count (0 = the default).
// countBackend puts the counting decorators around the mux; they time
// every counter read, so Update is timed on a rig without them.
func newLayerRig(w workload, seed int64, dir string, parallelism int, countBackend bool) (*layerRig, error) {
	m, ok := machine.Presets()[string(w.machine)]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", w.machine)
	}
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		return nil, err
	}
	// Spawn as Scenario.StartSyntheticJob does, seeds included.
	for i, j := range genJobs(rand.New(rand.NewSource(seed)), w.tasks) {
		spin, err := simload.NewSpin(simload.Synthetic(simload.SyntheticSpec{
			Name: j.Job.Name, IPC: j.Job.IPC, MemRefsPKI: j.Job.MemRefsPKI,
			HotBytes: j.Job.HotMB * (1 << 20), WarmBytes: j.Job.WarmMB * (1 << 20),
		}), int64(i+2))
		if err != nil {
			return nil, err
		}
		k.Spawn(j.User, j.Job.Name, spin, nil)
	}
	screen, ok := metrics.BuiltinScreens()[w.screen]
	if !ok {
		return nil, fmt.Errorf("unknown screen %q", w.screen)
	}
	l := &layerRig{k: k}
	var backend hpm.Backend = mux.Wrap(pmu.New(k))
	if countBackend {
		l.below = &countingBackend{Backend: pmu.New(k)}
		l.above = &countingBackend{Backend: mux.Wrap(l.below)}
		backend = l.above
	}
	l.sess, err = core.NewSession(backend, proc.NewSource(k), proc.NewClock(k), core.Options{
		Screen: screen, Interval: interval, Parallelism: parallelism,
	})
	if err != nil {
		return nil, err
	}
	if l.store, err = store.Open(dir, w.store); err != nil {
		return nil, err
	}
	rec := history.New(history.Options{})
	names := make([]string, len(screen.Columns))
	for i, c := range screen.Columns {
		names[i] = c.Name
	}
	rec.SetColumns(names)
	l.st = &timedObserver{target: l.store}
	rec.Tee(l.st)
	l.rec = &timedObserver{target: rec, inner: l.st}
	l.sess.Subscribe(l.rec)
	return l, nil
}

// tick advances the machine and runs one wrapped refresh.
func (l *layerRig) tick(measure bool) error {
	l.k.Advance(interval)
	a, t := heapAllocs(), time.Now()
	cs, err := l.sess.Update()
	d := time.Since(t)
	if err != nil {
		return err
	}
	if err := l.store.Err(); err != nil {
		return err
	}
	if measure {
		l.update.add(d)
		l.updateAllocs += heapAllocs() - a
		l.rows += len(cs.Rows)
		for i := range cs.Rows {
			l.coverageSum += cs.Rows[i].Coverage
		}
	}
	l.last = cs
	return nil
}

// reset forgets what the warm-up recorded.
func (l *layerRig) reset() {
	for _, b := range []*countingBackend{l.below, l.above} {
		if b == nil {
			continue
		}
		b.attaches.Store(0)
		b.closes.Store(0)
		b.reads.Store(0)
		b.nanos.Store(0)
		b.readNanos.Store(0)
	}
	for _, o := range []*timedObserver{l.rec, l.st} {
		o.nanos, o.allocs = nil, 0
	}
	l.update, l.updateAllocs, l.rows, l.coverageSum = nil, 0, 0, 0
}

func (l *layerRig) close() error {
	err := l.sess.Close()
	if cerr := l.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// evalCost times the screen's column expressions over the environment
// the engine builds for a row: ns and allocations per column
// evaluation.
func evalCost(screen *metrics.Screen, row *core.Row) (nsPerCol, allocsPerCol float64) {
	env := metrics.MapEnv{
		metrics.VarDeltaNS:   float64(interval),
		metrics.VarFreqHz:    0,
		metrics.VarCPUPct:    row.CPUPct,
		metrics.VarNumCPU:    0,
		metrics.VarSamplePct: row.Coverage * 100,
	}
	for name, v := range row.Events {
		env[name] = float64(v)
	}
	const rounds = 2000
	var sink float64
	a, t := heapAllocs(), time.Now()
	for i := 0; i < rounds; i++ {
		for _, col := range screen.Columns {
			v, _ := col.Expr.Eval(env)
			sink += v
		}
	}
	d := time.Since(t)
	n := float64(rounds * len(screen.Columns))
	if sink != sink { // keeps the evaluations live
		n++
	}
	return float64(d.Nanoseconds()) / n, float64(heapAllocs()-a) / n
}

package tiptop

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"tiptop/internal/config"
	"tiptop/internal/core"
	"tiptop/internal/export"
	"tiptop/internal/history"
	"tiptop/internal/remote"
)

// RecorderOptions tune a Recorder; the zero value gives 600 refreshes
// of history read back from its store, a one-minute rate window and an
// 8192-series retention bound.
type RecorderOptions = history.Options

// HistoryPoint is one recorded observation of a task.
type HistoryPoint = history.Point

// HistorySeries is the recorded time series of one task.
type HistorySeries = history.Series

// Aggregate is a roll-up over a set of tasks: live state of the last
// refresh, cumulative counter totals, and windowed rates.
type Aggregate = history.Aggregate

// Snapshot is a consistent copy of a Recorder's current state: the
// machine-wide, per-user and per-command aggregates plus the latest
// observation of every live task.
type Snapshot = history.Snapshot

// Recorder accumulates a Monitor's samples into incrementally
// maintained aggregates and each task's newest observation, and keeps
// its history in a Store: one in memory from NewRecorder on, or the
// one Tee attaches. History reads the newest RecorderOptions.Capacity
// refreshes back from the store's raw tier; Querier and QueryHandler
// query the store. Recording happens synchronously on the sampling
// goroutine and — once the aggregate entries exist, from a task's
// second refresh on — the recorder's own fold performs no allocations,
// so a subscribed Recorder does not perturb the engine's refresh cost.
// Queries are safe from any goroutine while sampling continues.
type Recorder struct {
	h *history.Recorder
	// mu guards st, the store the recorder is teed into: none until Tee
	// attaches one or the recorder first records or is queried without
	// one (store).
	mu sync.Mutex
	st *Store
	// scrape is what WriteOpenMetrics keeps between calls.
	scrape exposition
}

// NewRecorder creates an unattached Recorder; attach it to a Monitor
// with Subscribe. Unless Tee attaches a store first, it opens its own
// in memory when it first records or is queried.
func NewRecorder(opt RecorderOptions) *Recorder {
	r := &Recorder{h: history.New(opt)}
	r.scrape.add("", r, nil)
	return r
}

// exposition is what an OpenMetrics writer keeps between calls — a
// Recorder's own, or a Daemon's over its machines: a view per recorder
// and the encoder whose label blocks outlive a refresh. One exposition
// is written at a time.
type exposition struct {
	sync.Mutex
	recs []*history.Recorder
	// agents parallels recs under Join; nil renders one unlabelled
	// machine.
	agents []*remote.Agent
	ms     []export.FleetMachine
	enc    export.Encoder
}

// add appends a machine: its label, its recorder and, under Join, the
// agent streaming it in.
func (x *exposition) add(label string, rec *Recorder, agent *remote.Agent) {
	x.recs = append(x.recs, rec.h)
	if agent != nil {
		x.agents = append(x.agents, agent)
	}
	x.ms = append(x.ms, export.FleetMachine{Label: label, View: new(history.View)})
}

// write copies every recorder's state into its view and renders them:
// the single-machine exposition without agents, otherwise the
// machine-labelled merge with each agent's up state.
func (x *exposition) write(w io.Writer) error {
	x.Lock()
	defer x.Unlock()
	for i, r := range x.recs {
		r.View(x.ms[i].View)
	}
	if x.agents == nil {
		return x.enc.Write(w, x.ms[0].View)
	}
	for i, a := range x.agents {
		st, _ := a.Status()
		x.ms[i].Up = st.Connected
	}
	return x.enc.WriteFleet(w, x.ms)
}

// Subscribe attaches the recorder: every subsequent Sample()/SampleNow()
// feeds it, including rows beyond Config.MaxRows. Not safe to call
// concurrently with Sample.
func (m *Monitor) Subscribe(r *Recorder) {
	if r == nil {
		return
	}
	r.h.SetColumns(m.Columns())
	m.recs = append(m.recs, r)
}

// Unsubscribe detaches a previously subscribed recorder; its recorded
// history remains queryable. Not safe to call concurrently with Sample.
func (m *Monitor) Unsubscribe(r *Recorder) {
	if r == nil {
		return
	}
	if i := slices.Index(m.recs, r); i >= 0 {
		m.recs = slices.Delete(m.recs, i, i+1)
	}
}

// recorders are a Monitor's subscribed recorders, the one observer it
// registers with its session. The session only starts them, so that a
// large sample's store append runs on beside the public rows;
// sampleNow joins them before it returns.
type recorders []*Recorder

func (rs *recorders) Observe(cs *core.Sample) {
	for _, r := range *rs {
		r.store() // a recorder without one records into its own
		r.h.Start(cs)
	}
}

// Snapshot copies out the recorder's current state.
func (r *Recorder) Snapshot() *Snapshot { return r.h.Snapshot() }

// History returns the recorded series of every task with the given PID
// (several under per-thread monitoring), or nil if none was seen in the
// recorder's newest Capacity refreshes since the Tee. It reads the
// store's raw tier, timed on the store clock: one scan of every row in
// that span, whose failure is History's error.
func (r *Recorder) History(pid int) ([]HistorySeries, error) { return r.h.History(pid) }

// PIDs lists the recorded process IDs History answers for, sorted.
func (r *Recorder) PIDs() []int { return r.h.PIDs() }

// WriteOpenMetrics renders the recorder's aggregates and latest task
// values in the OpenMetrics / Prometheus text format. The recorder is
// read-locked only while its state is copied out, never while values
// are formatted or w is written; concurrent calls take turns (serve
// many scrapers through a remote.Server, which encodes once per refresh).
func (r *Recorder) WriteOpenMetrics(w io.Writer) error { return r.scrape.write(w) }

// ExpositionStats counts the expositions WriteOpenMetrics has written
// and how many of them had to render label blocks again: none while the
// set of live tasks, users and commands stands.
func (r *Recorder) ExpositionStats() (encodes, renders uint64) {
	r.scrape.Lock()
	defer r.scrape.Unlock()
	return r.scrape.enc.Stats()
}

// Validate reports configuration errors a Monitor constructor would
// reject, with tiptop-level messages: an unknown screen or event
// definition, an unknown sort key or a negative interval. Commands call
// it to fail fast on bad flags.
func (c Config) Validate() error {
	_, err := c.check()
	return err
}

// check is Validate, returning the checked definitions.
func (c Config) check() (*config.Defs, error) {
	screen, defs, err := c.resolve()
	if err != nil {
		return nil, err
	}
	if c.Interval < 0 {
		return nil, fmt.Errorf("tiptop: negative interval %v", c.Interval)
	}
	if err := core.ValidateSortKey(screen, c.SortBy); err != nil {
		return nil, fmt.Errorf("tiptop: %w", err)
	}
	if c.StoreRetention < 0 {
		return nil, fmt.Errorf("tiptop: negative store retention %v", c.StoreRetention)
	}
	if c.StoreBudget < 0 {
		return nil, fmt.Errorf("tiptop: negative store budget %d", c.StoreBudget)
	}
	if c.StoreCompact < 0 {
		return nil, fmt.Errorf("tiptop: negative store compaction period %v", c.StoreCompact)
	}
	return defs, nil
}

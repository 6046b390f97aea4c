package tiptop

// The durable-history facade: OpenStore and the Recorder.Tee hook give
// library users the same persistent, queryable store tiptopd -store
// runs on, and NewQueryClient consumes a daemon's /api/v1/query
// endpoint remotely. See internal/store for the format and retention
// semantics.

import (
	"math"
	"net/http"
	"slices"
	"time"

	"tiptop/internal/history"
	"tiptop/internal/hpm"
	"tiptop/internal/query"
	"tiptop/internal/remote"
	"tiptop/internal/store"
)

// StoreOptions tune a Store: segment rotation, the retention age
// horizon and the on-disk byte budget. The zero value gives 1 MiB
// segments, a 64 MiB budget and no age horizon.
type StoreOptions = store.Options

// StoreQuery selects a time range (and optionally one PID and a step)
// of recorded history.
type StoreQuery = store.QueryOptions

// StoreResult is a range-query response: per-task series plus the
// machine-wide roll-up, at the resolution the step selected.
type StoreResult = query.RawResult

// StoreSeries is one task's points inside a queried range.
type StoreSeries = query.RawSeries

// StorePoint is one observation of a queried series.
type StorePoint = query.RawPoint

// Store is a durable, segmented on-disk history store: every sample
// teed into it is appended crash-safely, downsampled into 10-second
// and 1-minute tiers, and retired by age and byte budget. One
// goroutine may record while any number query.
type Store struct {
	s *store.Store
}

// OpenStore creates or recovers a store in dir. Recovery scans every
// segment, clips a torn tail record (the signature of a crash
// mid-append), and resumes the store's monotonic clock past the newest
// recovered record so history spans restarts without time going
// backwards.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	s, err := store.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// Tee makes st the recorder's store in place of the one it had: every
// sample the recorder observes (from a local Monitor or a remote
// stream) is also appended to the store outside the recorder's lock —
// for a sample of core.SplitRows rows or more on a helper goroutine,
// beside the recorder's fold and the sample's public rows. Either way
// the append is done when Sample returns. Append errors are latched —
// check Store.Err. Not safe to call concurrently with sampling.
//
// The store is the recorder's history: History reads the refreshes the
// recorder observed from the Tee on back from the store's raw tier, and
// Querier queries the store. Tee(nil) tees a fresh in-memory store, as
// a recorder does for itself when it first records or is queried
// without one.
func (r *Recorder) Tee(st *Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.teeLocked(st)
}

func (r *Recorder) teeLocked(st *Store) {
	if st == nil {
		st = memStore(r.h.Capacity())
	}
	r.st = st
	r.h.Tee(keeper{st.s})
}

// store returns the store the recorder is teed into, first teeing a
// fresh in-memory one when it has none.
func (r *Recorder) store() *Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.st == nil {
		r.teeLocked(nil)
	}
	return r.st
}

// memStore opens an in-memory store that keeps the newest capacity
// refreshes, the recorder's History window, and nothing older: what it
// holds follows the recorder's traffic, with no byte budget to guess.
func memStore(capacity int) *Store {
	s, err := store.OpenMem(capacity)
	if err != nil {
		panic("tiptop: an empty in-memory store does not open: " + err.Error())
	}
	return &Store{s: s}
}

// keeper is a store as a teed recorder's history.Keeper: the raw tier
// replays a task's refreshes as history points, counts read by event
// name, time on the store clock — the points /api/v1/query?pid= serves.
type keeper struct{ *store.Store }

func (k keeper) Replay(pid int, from, to time.Duration, fn func(tid int, p *history.Point)) error {
	secs := func(d time.Duration) float64 { return float64(d.Milliseconds()) / 1000 } // as the records read
	var p history.Point
	_, err := k.ScanWith(store.ScanOptions{QueryOptions: store.QueryOptions{
		// A bound of 0 would read to the end.
		FromSeconds: secs(from), ToSeconds: max(secs(to), math.SmallestNonzeroFloat64),
	}}, func(rec *store.Record, _ []string) error {
		instr, cycles := slices.Index(rec.Events, hpm.EventInstructions), slices.Index(rec.Events, hpm.EventCycles)
		misses := slices.Index(rec.Events, hpm.EventCacheMisses)
		for i := range rec.Rows {
			row := &rec.Rows[i]
			if row.PID != pid {
				continue
			}
			p = history.Point{
				TimeSeconds: rec.TimeSeconds, CPUPct: row.CPUPct, Values: row.Values,
				Instr: count(row.Counts, instr), Cycles: count(row.Counts, cycles), Misses: count(row.Counts, misses),
			}
			fn(row.TID, &p)
		}
		return nil
	})
	return err
}

// count is counts[i], 0 for an event the record does not count.
func count(counts []uint64, i int) uint64 {
	if i < 0 || i >= len(counts) {
		return 0
	}
	return counts[i]
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.s.Dir() }

// Err returns the first append error since opening, nil while healthy.
func (st *Store) Err() error { return st.s.Err() }

// Records counts the records on disk across all resolution tiers.
func (st *Store) Records() int64 { return st.s.Records() }

// DiskUsage returns the store's current size on disk, in bytes.
func (st *Store) DiskUsage() int64 { return st.s.DiskUsage() }

// LastTime returns the newest record's time on the store's monotonic
// clock.
func (st *Store) LastTime() time.Duration { return st.s.LastTime() }

// SetColumns labels subsequent records with the screen's column names.
// Recorder.Tee calls it for you; call it before RecordSample.
func (st *Store) SetColumns(names []string) { st.s.SetColumns(names) }

// Query scans the store for a time range, serving from the downsample
// tier the query's step selects — the answer /api/v1/query?pid= gives.
func (st *Store) Query(q StoreQuery) (*StoreResult, error) {
	return query.RunRaw(st.s, q.PID, query.Options{FromSeconds: q.FromSeconds, ToSeconds: q.ToSeconds, StepSeconds: q.StepSeconds})
}

// Handler serves the store's range queries over HTTP — the same
// /api/v1/query contract tiptopd mounts: raw per-task series without
// parameters, expression queries with ?expr= (JSON, or OpenMetrics
// text with ?format=openmetrics).
func (st *Store) Handler() http.Handler { return QueryHandler(st, nil) }

// QueryHandler serves the full /api/v1/query contract for a daemon: raw
// range queries and expression queries, both against st, or when st is
// nil against the store rec is teed into as it stands now. With neither
// it answers every query 404.
func QueryHandler(st *Store, rec *Recorder) http.Handler {
	switch {
	case st != nil:
	case rec != nil:
		st = rec.store()
	default:
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			remote.WriteError(w, http.StatusNotFound, "no store or recorder to query")
		})
	}
	// A solo daemon is a fleet of one unlabelled store.
	return queryHandler(map[string]*Store{"": st})
}

// queryHandler is QueryHandler over any number of stores keyed by agent
// label, as an aggregating Daemon mounts it: ?agent=label selects one
// store, ?agent=* (or no selector) all of them — raw queries need
// exactly one, expression queries merge however many on aligned steps.
func queryHandler(stores map[string]*Store) http.Handler {
	ss := make(map[string]*store.Store, len(stores))
	for label, st := range stores {
		ss[label] = st.s
	}
	return query.Handler(ss)
}

// RecordSample appends one hand-built public sample. A monitor's
// samples reach a store through a Recorder teed into it (Tee), as
// tiptop -record DIR and tiptopd -store do: no engine vouches for a
// hand-built sample, so the store keeps every value and folds every
// row into its tiers.
func (st *Store) RecordSample(s *Sample) error {
	return st.s.AppendSample(s.coreSample())
}

// Close seals the store. Partial downsample buckets are discarded (the
// raw tier holds their data); reopening resumes where the log ends.
func (st *Store) Close() error { return st.s.Close() }

// FsyncPolicy is the store's group-commit durability policy: an
// interval and/or record-count bound after which dirty segments are
// flushed in one batch. The zero policy never syncs (the kernel
// flushes on its own schedule). Set it via StoreOptions.Fsync.
type FsyncPolicy = store.FsyncPolicy

// ParseFsync parses the -fsync flag / fsync= attribute syntax: "off",
// an interval ("2s"), a record count ("1000-records"), or both
// comma-combined.
func ParseFsync(s string) (FsyncPolicy, error) { return store.ParseFsync(s) }

// CompactOptions is Store.Compact's argument; it has no fields.
type CompactOptions = store.CompactOptions

// CompactionResult reports what a compaction pass rewrote, per tier.
type CompactionResult = store.CompactionResult

// Compact merges the store's sealed segments — those that sealed small
// by age, or were fragmented by restarts — into full-size ones under
// one string dictionary each, and rewrites the previous build's v4
// frames as v5. Queries
// keep answering (and appends keep landing) during the pass. tiptopd
// runs this periodically with -compact; archival users call it after
// bulk loads.
func (st *Store) Compact(opt CompactOptions) (*CompactionResult, error) { return st.s.Compact(opt) }

// QueryOptions select the time range and step of an expression query.
type QueryOptions = query.Options

// QueryResult is an expression query's response: one value series per
// task, group or agent, plus the recomputed total roll-up.
type QueryResult = query.Result

// QuerySeries is one series of an expression query result.
type QuerySeries = query.Series

// QueryPoint is one evaluated point of a query series.
type QueryPoint = query.Point

// QueryClient queries a remote tiptopd's /api/v1/query endpoint — the
// durable-history counterpart of NewRemoteMonitor's live stream. It
// serves both raw range queries (Query) and expression queries
// (QueryExpr; optional extra parameters come in name/value pairs —
// "agent", "*" merges a fleet aggregator's agents).
type QueryClient = query.Client

// NewQueryClient builds a query client for a daemon at addr
// ("host:port" or a full URL, as served by tiptopd -addr).
func NewQueryClient(addr string) (*QueryClient, error) { return query.NewClient(addr) }

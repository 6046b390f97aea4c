package tiptop

// The durable-history facade: OpenStore and the Recorder.Tee hook give
// library users the same persistent, queryable store tiptopd -store
// runs on, and NewQueryClient consumes a daemon's /api/v1/query
// endpoint remotely. See internal/store for the format and retention
// semantics.

import (
	"net/http"
	"time"

	"tiptop/internal/history"
	"tiptop/internal/query"
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

// Tee attaches the store to the recorder: every sample the recorder
// observes (from a local Monitor or a remote stream) is also appended
// to the store, on the sampling goroutine but outside the recorder's
// lock. Append errors are latched — check Store.Err. Not safe to call
// concurrently with sampling.
func (r *Recorder) Tee(st *Store) {
	if st == nil {
		r.h.Tee(nil)
		return
	}
	r.h.Tee(st.s)
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
// Recorder.Tee and RecordSample-based sinks call it for you.
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
// range queries and expression queries, both against the store, or the
// recorder's live rings when st is nil or with ?source=live. Either
// argument may be nil.
func QueryHandler(st *Store, rec *Recorder) http.Handler {
	// A solo daemon is a fleet of one unlabelled store.
	stores := map[string]*Store{}
	if st != nil {
		stores[""] = st
	}
	return queryHandler(stores, rec)
}

// queryHandler is QueryHandler over any number of stores keyed by agent
// label, as an aggregating Daemon mounts it: ?agent=label selects one
// store, ?agent=* (or no selector) all of them — raw queries need
// exactly one, expression queries merge however many on aligned steps.
func queryHandler(stores map[string]*Store, rec *Recorder) http.Handler {
	ss := make(map[string]*store.Store, len(stores))
	for label, st := range stores {
		ss[label] = st.s
	}
	var h *history.Recorder
	if rec != nil {
		h = rec.h
	}
	return query.Handler(ss, h)
}

// RecordSample appends one public sample — the path `tiptop -record`
// uses when its target is a store directory rather than a CSV/JSONL
// file.
func (st *Store) RecordSample(s *Sample) error {
	cs := s.coreView()
	cs.SetEvents(func(i int) map[string]uint64 { return s.Rows[i].Events })
	return st.s.AppendSample(cs)
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

// CompactOptions tune Store.Compact.
type CompactOptions = store.CompactOptions

// CompactionResult reports what a compaction pass rewrote, per tier.
type CompactionResult = store.CompactionResult

// Compact merges the store's sealed segments — those that sealed small
// by age, or were fragmented by restarts — into full-size ones under
// one string dictionary each, tombstoning series of long-exited tasks
// if asked. Appends already write the columnar record format v3, so
// this shrinks only what an older build left as v1 JSON or v2. Queries keep
// answering (and appends keep landing) during the pass, and read every
// segment layout transparently afterwards. tiptopd runs this
// periodically with -compact; archival users call it after bulk loads.
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
// "agent", "*" merges a fleet aggregator's agents, "source", "live"
// forces a solo daemon's live rings).
type QueryClient = query.Client

// NewQueryClient builds a query client for a daemon at addr
// ("host:port" or a full URL, as served by tiptopd -addr).
func NewQueryClient(addr string) (*QueryClient, error) { return query.NewClient(addr) }

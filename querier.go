package tiptop

// The unified query surface: every backend that can answer a screen-
// language expression — a durable Store, a live Recorder, a remote
// QueryClient — satisfies one Querier interface, so code written
// against it runs unchanged whether the history lives on local disk,
// in a recorder's in-memory store, or behind a daemon's HTTP endpoint.

import (
	"fmt"

	"tiptop/internal/query"
)

// Querier is the expression-query contract shared by all history
// backends. QueryExpr evaluates a screen-language expression —
// `delta(INSTRUCTIONS)/delta(CYCLES)`, `topk(3, rate(CYCLES)) by
// user`, `avg_over_time(ipc)` — over the backend's recorded
// observations, bucketed to opt.StepSeconds.
//
// extra parameters come in name/value pairs. The remote backend
// (QueryClient) forwards them to the daemon ("agent", "*" merges a
// fleet); the local backends accept none and reject them loudly, so a
// caller cannot silently assume remote-only behaviour of a local store.
//
// Obtain one from Store.Querier, Recorder.Querier, or use a
// QueryClient directly.
type Querier interface {
	QueryExpr(expr string, opt QueryOptions, extra ...string) (*QueryResult, error)
}

var _ Querier = (*QueryClient)(nil)

// localQuerier adapts an in-process store — on disk or a Recorder's in
// memory — to the Querier contract.
type localQuerier struct {
	backend string
	src     query.Source
}

// Querier returns the store's unified query surface.
func (st *Store) Querier() Querier { return localQuerier{"store", st.s} }

// Querier returns the recorder's unified query surface: the store it is
// teed into, on disk or its own in memory, which answers every event and
// column of the screen it recorded, at every tier.
func (r *Recorder) Querier() Querier { return localQuerier{"recorder", r.store().s} }

func (q localQuerier) QueryExpr(expr string, opt QueryOptions, extra ...string) (*QueryResult, error) {
	if err := rejectExtra(q.backend, extra); err != nil {
		return nil, err
	}
	c, err := query.Compile(expr, query.Names(map[string]query.Source{"": q.src}))
	if err != nil {
		return nil, err
	}
	return query.Run(map[string]query.Source{"": q.src}, c, opt)
}

// rejectExtra fails a local query that passes remote-only parameters:
// a store or recorder has no agents to select, and silently ignoring
// the request would return the wrong data.
func rejectExtra(backend string, extra []string) error {
	if len(extra) == 0 {
		return nil
	}
	return fmt.Errorf("tiptop: the %s backend accepts no extra query parameters (got %q); agent= is remote-only", backend, extra)
}

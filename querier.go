package tiptop

// The unified query surface: every backend that can answer a screen-
// language expression — a durable Store, a live Recorder, a remote
// QueryClient — satisfies one Querier interface, so code written
// against it runs unchanged whether the history lives on local disk,
// in live ring buffers, or behind a daemon's HTTP endpoint.

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
// fleet; "source", "live" forces a solo daemon's rings); the local
// backends accept none and reject them loudly, so a caller cannot
// silently assume remote-only behaviour of a local store.
//
// Obtain one from Store.Querier, Recorder.Querier, or use a
// QueryClient directly.
type Querier interface {
	QueryExpr(expr string, opt QueryOptions, extra ...string) (*QueryResult, error)
}

var _ Querier = (*QueryClient)(nil)

// storeQuerier adapts a Store to the Querier contract.
type storeQuerier struct{ st *Store }

// Querier returns the store's unified query surface.
func (st *Store) Querier() Querier { return storeQuerier{st} }

func (q storeQuerier) QueryExpr(expr string, opt QueryOptions, extra ...string) (*QueryResult, error) {
	if err := rejectExtra("store", extra); err != nil {
		return nil, err
	}
	c, err := query.Compile(expr, query.KnownNames(q.st.s.Columns()))
	if err != nil {
		return nil, err
	}
	return query.QueryStore(q.st.s, c, opt)
}

// recorderQuerier adapts a Recorder to the Querier contract.
type recorderQuerier struct{ r *Recorder }

// Querier returns the recorder's unified query surface over its live
// ring buffers — the same data the interactive screens render, served
// as series. Semantics match a Store's on the same observations:
// counters (INSTRUCTIONS, CYCLES, CACHE_MISSES) sum per bucket while
// columns and CPU_PCT average.
func (r *Recorder) Querier() Querier { return recorderQuerier{r} }

func (q recorderQuerier) QueryExpr(expr string, opt QueryOptions, extra ...string) (*QueryResult, error) {
	if err := rejectExtra("recorder", extra); err != nil {
		return nil, err
	}
	c, err := query.Compile(expr, query.KnownNames(q.r.h.Columns()))
	if err != nil {
		return nil, err
	}
	return query.QueryHistory(q.r.h, c, opt)
}

// rejectExtra fails a local query that passes remote-only parameters:
// a store or recorder has no agents to select and no alternate source,
// and silently ignoring the request would return the wrong data.
func rejectExtra(backend string, extra []string) error {
	if len(extra) == 0 {
		return nil
	}
	return fmt.Errorf("tiptop: the %s backend accepts no extra query parameters (got %q); agent= and source= are remote-only", backend, extra)
}

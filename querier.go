package tiptop

// The unified query surface: every backend that can answer a screen-
// language expression — a durable Store, a live Recorder, a remote
// QueryClient — satisfies one Querier interface, so code written
// against it runs unchanged whether the history lives on local disk,
// in a store-less recorder's ring buffers, or behind a daemon's HTTP
// endpoint.

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

// localQuerier adapts an in-process history — a Store's segments, a
// store-less Recorder's rings — to the Querier contract.
type localQuerier struct {
	backend string
	src     query.Source
}

// Querier returns the store's unified query surface.
func (st *Store) Querier() Querier { return localQuerier{"store", st.s} }

// Querier returns the recorder's unified query surface: the store it is
// teed into, or else its live ring buffers — the same data the
// interactive screens render, served as series. The rings replay as the
// records a Store would have written from the same observations, so the
// two answer identically: counters (INSTRUCTIONS, CYCLES, CACHE_MISSES)
// sum per bucket while columns and CPU_PCT average.
func (r *Recorder) Querier() Querier {
	if r.st != nil {
		return localQuerier{"recorder", r.st.s}
	}
	return localQuerier{"recorder", query.Rings(r.h)}
}

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

package tiptop_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tiptop"
)

// querierFixture builds a recorder teed into a store, a store-less
// recorder fed the same simulated samples, and an HTTP server exposing
// the first two — the four Querier backends over one data set — on the
// default screen.
func querierFixture(t *testing.T) (rec, bare *tiptop.Recorder, st *tiptop.Store, ts *httptest.Server) {
	t.Helper()
	return querierFixtureOn(t, "")
}

// querierFixtureOn is querierFixture on the named screen.
func querierFixtureOn(t *testing.T, screen string) (rec, bare *tiptop.Recorder, st *tiptop.Store, ts *httptest.Server) {
	t.Helper()
	st, err := tiptop.OpenStore(t.TempDir(), tiptop.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { st.Close() })

	sc, err := tiptop.NewScenario(tiptop.MachineXeonW3550)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	if _, err := sc.StartWorkload("alice", "gromacs", 0.05); err != nil {
		t.Fatalf("StartWorkload: %v", err)
	}
	if _, err := sc.StartWorkload("bob", "mcf", 0.03); err != nil {
		t.Fatalf("StartWorkload: %v", err)
	}
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: 2 * time.Second, Screen: screen})
	if err != nil {
		t.Fatalf("NewSimMonitor: %v", err)
	}
	defer mon.Close()

	rec = tiptop.NewRecorder(tiptop.RecorderOptions{})
	rec.Tee(st)
	mon.Subscribe(rec)
	bare = tiptop.NewRecorder(tiptop.RecorderOptions{})
	mon.Subscribe(bare)
	for i := 0; i < 10; i++ {
		if _, err := mon.Sample(); err != nil {
			t.Fatalf("Sample %d: %v", i, err)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("GET /api/v1/query", tiptop.QueryHandler(st, rec))
	ts = httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return rec, bare, st, ts
}

// TestQuerierUnification: the same expression through every Querier
// backend — Store, a Recorder teed into it (which queries the store), a
// store-less Recorder (its in-memory store), QueryClient — answers
// identically over the same samples.
func TestQuerierUnification(t *testing.T) {
	rec, bare, st, ts := querierFixture(t)
	qc, err := tiptop.NewQueryClient(ts.URL)
	if err != nil {
		t.Fatalf("NewQueryClient: %v", err)
	}

	backends := map[string]tiptop.Querier{
		"store":     st.Querier(),
		"recorder":  rec.Querier(),
		"storeless": bare.Querier(),
		"client":    qc,
	}
	exprs := []string{
		"delta(INSTRUCTIONS)/delta(CYCLES)",
		"topk(2, rate(CYCLES))",
		"rate(INSTRUCTIONS) by user",
	}
	opt := tiptop.QueryOptions{StepSeconds: 2}
	for _, expr := range exprs {
		want, err := st.Querier().QueryExpr(expr, opt)
		if err != nil {
			t.Fatalf("store %q: %v", expr, err)
		}
		wantJSON, _ := json.Marshal(want)
		if len(want.Series) == 0 {
			t.Fatalf("store %q: no series", expr)
		}
		for name, q := range backends {
			got, err := q.QueryExpr(expr, opt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, expr, err)
			}
			gotJSON, _ := json.Marshal(got)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("%s %q diverges from store:\n%s\nvs\n%s", name, expr, gotJSON, wantJSON)
			}
		}
	}
}

// TestStorelessRecorderQueriesEveryEvent: on the wide screen, a
// store-less recorder's Querier answers every event the screen counts —
// not only INSTRUCTIONS, CYCLES and CACHE_MISSES — byte for byte as the
// store on disk fed the same samples does.
func TestStorelessRecorderQueriesEveryEvent(t *testing.T) {
	_, bare, st, _ := querierFixtureOn(t, "wide")
	opt := tiptop.QueryOptions{StepSeconds: 2}
	for _, expr := range []string{"delta(BRANCH_MISSES)", "delta(L2_MISSES)/delta(INSTRUCTIONS)"} {
		want, err := st.Querier().QueryExpr(expr, opt)
		if err != nil {
			t.Fatalf("store %q: %v", expr, err)
		}
		if len(want.Series) == 0 {
			t.Fatalf("store %q: no series", expr)
		}
		got, err := bare.Querier().QueryExpr(expr, opt)
		if err != nil {
			t.Fatalf("store-less recorder %q: %v", expr, err)
		}
		wantJSON, _ := json.Marshal(want)
		if gotJSON, _ := json.Marshal(got); string(gotJSON) != string(wantJSON) {
			t.Errorf("store-less recorder %q diverges from the store:\n%s\nvs\n%s", expr, gotJSON, wantJSON)
		}
	}
}

// TestQuerierLocalRejectsExtra: the local backends refuse remote-only
// parameters instead of silently ignoring them; the client forwards
// them.
func TestQuerierLocalRejectsExtra(t *testing.T) {
	rec, bare, st, ts := querierFixture(t)
	qc, err := tiptop.NewQueryClient(ts.URL)
	if err != nil {
		t.Fatalf("NewQueryClient: %v", err)
	}
	opt := tiptop.QueryOptions{StepSeconds: 2}
	for name, q := range map[string]tiptop.Querier{"store": st.Querier(), "recorder": rec.Querier(), "storeless": bare.Querier()} {
		_, err := q.QueryExpr("rate(CYCLES)", opt, "agent", "*")
		if err == nil || !strings.Contains(err.Error(), "remote-only") {
			t.Fatalf("%s accepted extra params, err = %v", name, err)
		}
	}
	if _, err := qc.QueryExpr("rate(CYCLES)", opt, "agent", "*"); err != nil {
		t.Fatalf("client with agent=*: %v", err)
	}
}

// TestQuerierMixedVersionStore: QueryExpr over a store holding both
// compacted (.cseg) and live (.seg) segments answers identically to a
// never-compacted twin — the unified API is layout-transparent. (The
// v1 JSON half of the mixed-version contract needs the store package's
// test-only v1 writer; internal/store's TestMixedVersionTwin covers it.)
func TestQuerierMixedVersionStore(t *testing.T) {
	build := func(dir string, compactAt int) *tiptop.Store {
		st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{SegmentBytes: 8 << 10})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		sc, err := tiptop.NewScenario(tiptop.MachineXeonW3550)
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		if _, err := sc.StartWorkload("alice", "gromacs", 0.05); err != nil {
			t.Fatalf("StartWorkload: %v", err)
		}
		mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: 2 * time.Second})
		if err != nil {
			t.Fatalf("NewSimMonitor: %v", err)
		}
		defer mon.Close()
		rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
		rec.Tee(st)
		mon.Subscribe(rec)
		for i := 0; i < 60; i++ {
			if _, err := mon.Sample(); err != nil {
				t.Fatalf("Sample: %v", err)
			}
			if compactAt > 0 && i == compactAt {
				if _, err := st.Compact(tiptop.CompactOptions{}); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			}
		}
		return st
	}
	// The scenario engine is deterministic: same seed, same samples.
	mixed := build(t.TempDir(), 40)
	defer mixed.Close()
	plain := build(t.TempDir(), 0)
	defer plain.Close()

	opt := tiptop.QueryOptions{StepSeconds: 2}
	for _, expr := range []string{"delta(INSTRUCTIONS)/delta(CYCLES)", "rate(CYCLES)"} {
		a, err := mixed.Querier().QueryExpr(expr, opt)
		if err != nil {
			t.Fatalf("mixed %q: %v", expr, err)
		}
		b, err := plain.Querier().QueryExpr(expr, opt)
		if err != nil {
			t.Fatalf("plain %q: %v", expr, err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("%q: compacted store diverges from its never-compacted twin:\n%s\nvs\n%s", expr, aj, bj)
		}
		if len(a.Series) == 0 {
			t.Errorf("%q: no series", expr)
		}
	}
}

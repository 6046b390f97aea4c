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

// querierFixture builds a recorder and a store fed the same simulated
// samples, plus an HTTP server exposing them — the three Querier
// backends over one data set.
func querierFixture(t *testing.T) (*tiptop.Recorder, *tiptop.Store, *httptest.Server) {
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
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: 2 * time.Second})
	if err != nil {
		t.Fatalf("NewSimMonitor: %v", err)
	}
	defer mon.Close()

	rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
	rec.Tee(st)
	mon.Subscribe(rec)
	for i := 0; i < 10; i++ {
		if _, err := mon.Sample(); err != nil {
			t.Fatalf("Sample %d: %v", i, err)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("GET /api/v1/query", tiptop.QueryHandler(st, rec))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return rec, st, ts
}

// TestQuerierUnification: the same expression through every Querier
// backend — Store, Recorder, QueryClient — answers identically over the
// same samples.
func TestQuerierUnification(t *testing.T) {
	rec, st, ts := querierFixture(t)
	qc, err := tiptop.NewQueryClient(ts.URL)
	if err != nil {
		t.Fatalf("NewQueryClient: %v", err)
	}

	backends := map[string]tiptop.Querier{
		"store":    st.Querier(),
		"recorder": rec.Querier(),
		"client":   qc,
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

// TestQuerierLocalRejectsExtra: the local backends refuse remote-only
// parameters instead of silently ignoring them; the client forwards
// them.
func TestQuerierLocalRejectsExtra(t *testing.T) {
	rec, st, ts := querierFixture(t)
	qc, err := tiptop.NewQueryClient(ts.URL)
	if err != nil {
		t.Fatalf("NewQueryClient: %v", err)
	}
	opt := tiptop.QueryOptions{StepSeconds: 2}
	for name, q := range map[string]tiptop.Querier{"store": st.Querier(), "recorder": rec.Querier()} {
		_, err := q.QueryExpr("rate(CYCLES)", opt, "source", "live")
		if err == nil || !strings.Contains(err.Error(), "remote-only") {
			t.Fatalf("%s accepted extra params, err = %v", name, err)
		}
	}
	if _, err := qc.QueryExpr("rate(CYCLES)", opt, "source", "live"); err != nil {
		t.Fatalf("client with source=live: %v", err)
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

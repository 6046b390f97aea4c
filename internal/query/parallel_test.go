package query

// Equality tests for vectorized store queries: the parallel, projected
// scan path (the default) must produce the same result as the serial
// full-decode baseline, pointwise to 1e-12 relative, over stores mixing
// v1 JSON and v2 columnar segments — solo and fleet.

import (
	"math"
	"testing"
	"time"

	"tiptop/internal/store"
)

// seedMixedStore seeds a store, compacts it into merged .cseg segments,
// then appends more refreshes so live segments follow the csegs.
func seedMixedStore(t *testing.T, tasks, refreshes int) *store.Store {
	t.Helper()
	st := seedStore(t, tasks, refreshes)
	if _, err := st.Compact(store.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := refreshes + 1; i <= refreshes+refreshes/2; i++ {
		if err := st.AppendSample(sampleAt(time.Duration(i)*2*time.Second, tasks)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func closeEnough(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	tol := 1e-12 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol
}

func assertResultsClose(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Expr != want.Expr || got.GroupBy != want.GroupBy ||
		got.ResolutionSeconds != want.ResolutionSeconds ||
		got.StepSeconds != want.StepSeconds {
		t.Fatalf("%s: headers differ: got %+v, want %+v", label, got, want)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", label, len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		gs, ws := &got.Series[i], &want.Series[i]
		if gs.Key != ws.Key || gs.User != ws.User || gs.Agent != ws.Agent {
			t.Fatalf("%s: series %d is %q(%s/%s), want %q(%s/%s)",
				label, i, gs.Key, gs.User, gs.Agent, ws.Key, ws.User, ws.Agent)
		}
		if !closeEnough(gs.Mean, ws.Mean) {
			t.Fatalf("%s: series %q mean %v, want %v", label, gs.Key, gs.Mean, ws.Mean)
		}
		if len(gs.Points) != len(ws.Points) {
			t.Fatalf("%s: series %q has %d points, want %d",
				label, gs.Key, len(gs.Points), len(ws.Points))
		}
		for j := range ws.Points {
			gp, wp := gs.Points[j], ws.Points[j]
			if gp.TimeSeconds != wp.TimeSeconds || !closeEnough(gp.Value, wp.Value) {
				t.Fatalf("%s: series %q point %d = (%v, %v), want (%v, %v)",
					label, gs.Key, j, gp.TimeSeconds, gp.Value, wp.TimeSeconds, wp.Value)
			}
		}
	}
}

func TestQueryStoreParallelProjectedEqual(t *testing.T) {
	st := seedMixedStore(t, 4, 80) // refreshes at 2s cadence, mixed v1/v2
	exprs := []string{
		"delta(INSTRUCTIONS) / delta(CYCLES)",
		"topk(2, rate(CYCLES)) by user",
		"avg_over_time(CPU_PCT)",
		"pidcol * 2",
		"max_over_time(ratio(CACHE_MISSES, INSTRUCTIONS))",
	}
	opts := []Options{
		{StepSeconds: 60},
		{StepSeconds: 10, FromSeconds: 20, ToSeconds: 150},
		{},
	}
	for _, src := range exprs {
		c := mustCompile(t, src, "pidcol")
		for _, opt := range opts {
			serial := opt
			serial.Workers = 1
			serial.FullDecode = true
			want, err := QueryStore(st, c, serial)
			if err != nil {
				t.Fatalf("%s %+v serial: %v", src, opt, err)
			}
			got, err := QueryStore(st, c, opt)
			if err != nil {
				t.Fatalf("%s %+v parallel: %v", src, opt, err)
			}
			assertResultsClose(t, src, got, want)
			if len(want.Series) == 0 {
				t.Fatalf("%s %+v evaluated no series", src, opt)
			}
		}
	}
}

func TestQueryFleetParallelEqual(t *testing.T) {
	stores := map[string]Source{
		"a:1": seedMixedStore(t, 3, 60),
		"b:2": seedMixedStore(t, 5, 60),
		"c:3": seedStore(t, 2, 40), // pure v1, never compacted
	}
	for _, src := range []string{
		"delta(INSTRUCTIONS) / delta(CYCLES)",
		"rate(CYCLES) by agent",
		"topk(3, pidcol) by user",
	} {
		c := mustCompile(t, src, "pidcol")
		opt := Options{StepSeconds: 30}
		serial := opt
		serial.Workers = 1
		serial.FullDecode = true
		want, err := Run(stores, c, serial)
		if err != nil {
			t.Fatalf("%s serial: %v", src, err)
		}
		got, err := Run(stores, c, opt)
		if err != nil {
			t.Fatalf("%s parallel: %v", src, err)
		}
		assertResultsClose(t, src, got, want)
	}
}

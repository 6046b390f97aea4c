package store_test

// The record-version contract across formats, end to end: a store that
// an older build left in v1 JSON and v2 frames opens under this build,
// takes v3 appends into its recovered v2 tail, and answers every raw and
// expression query with the bytes a twin that was v3 from the start
// answers — before Compact, after it (which rewrites every sealed
// segment as v3) and after a reopen.

import (
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"tiptop/internal/query"
	"tiptop/internal/store"
)

// contractQueries are raw and expression queries over every tier, in
// both response formats.
var contractQueries = []url.Values{
	{},
	{"pid": {"102"}},
	{"step": {"10"}},
	{"step": {"60"}},
	{"step": {"30"}},
	{"from": {"100"}, "to": {"250"}},
	{"pid": {"101"}, "step": {"10"}, "format": {"openmetrics"}},
	{"expr": {"delta(INSTRUCTIONS) / delta(CYCLES)"}},
	{"expr": {"delta(INSTRUCTIONS) / delta(CYCLES)"}, "step": {"10"}},
	{"expr": {"rate(CYCLES) by user"}, "step": {"10"}},
	{"expr": {"topk(2, avg_over_time(c))"}, "step": {"60"}},
	{"expr": {"sum_over_time(CPU_PCT + d) by command"}, "step": {"30"}},
	{"expr": {"delta(INSTRUCTIONS) / delta(CYCLES)"}, "step": {"60"}, "format": {"openmetrics"}},
}

// queryBodies answers contractQueries from st through the query handler.
func queryBodies(t *testing.T, st *store.Store) []string {
	t.Helper()
	h := query.Handler(map[string]*store.Store{"": st}, nil)
	var out []string
	for _, q := range contractQueries {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/query?"+q.Encode(), nil))
		if w.Code != 200 {
			t.Fatalf("%s: %d %s", q.Encode(), w.Code, w.Body)
		}
		out = append(out, w.Body.String())
	}
	return out
}

func TestVersionContractAcrossFormats(t *testing.T) {
	opt := store.Options{SegmentBytes: 4 << 10}
	old := store.MustOpen(t, t.TempDir(), opt)
	twin := store.MustOpen(t, t.TempDir(), opt)
	seedOld, seedTwin := uint64(7), uint64(7)
	fill := func(start time.Duration, n int) {
		t.Helper()
		store.FillVaried(t, old, start, time.Second, n, 4, &seedOld)
		store.FillVaried(t, twin, start, time.Second, n, 4, &seedTwin)
	}
	closeBoth := func() {
		t.Helper()
		for _, st := range []*store.Store{old, twin} {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reopened with room for appends, so the tail is the part-filled
	// segment an older build left, not one this build seals at once.
	openBoth := func() {
		t.Helper()
		opt.SegmentBytes = 16 << 10
		old, twin = store.MustOpen(t, old.Dir(), opt), store.MustOpen(t, twin.Dir(), opt)
		old.SetColumns([]string{"c", "d"})
		twin.SetColumns([]string{"c", "d"})
	}
	compare := func(when string) {
		t.Helper()
		want := queryBodies(t, twin)
		for i, got := range queryBodies(t, old) {
			if got != want[i] {
				t.Fatalf("%s, %s: the old store answers\n%.1500s\nits v3 twin\n%.1500s", when, contractQueries[i].Encode(), got, want[i])
			}
		}
	}
	old.SetColumns([]string{"c", "d"})
	twin.SetColumns([]string{"c", "d"})
	fill(time.Second, 150)
	if _, err := old.Compact(store.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	fill(151*time.Second, 150)
	closeBoth()
	// The old build's directory: live segments in v1 JSON, except each
	// tier's tail, which is v2 like the compacted segments.
	dir := old.Dir()
	store.RewriteSegmentsV1(t, dir)
	v2, err := filepath.Glob(filepath.Join(dir, "*.cseg"))
	if err != nil || len(v2) == 0 {
		t.Fatalf("no compacted segments (%v)", err)
	}
	var sealed, tail string
	for _, tier := range []string{"1m", "10s", "raw"} {
		segs, err := filepath.Glob(filepath.Join(dir, tier+"-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no %s segments (%v)", tier, err)
		}
		sealed, tail = segs[0], segs[len(segs)-1] // raw's, after the loop
		v2 = append(v2, tail)
	}
	if sealed == tail {
		t.Fatal("the raw tier has no sealed live segment")
	}
	store.RewriteSegmentsV2(t, v2...)
	openBoth()
	if k := store.FrameKinds(t, tail); k.V2 == 0 || k.V1+k.V3 != 0 {
		t.Fatalf("the raw tail holds %+v frames, want v2 only", k)
	}
	if k := store.FrameKinds(t, sealed); k.V1 == 0 || k.V2+k.V3 != 0 {
		t.Fatalf("a sealed raw segment holds %+v frames, want v1 only", k)
	}
	compare("as the older build left it")

	fill(time.Second, 2)
	if k := store.FrameKinds(t, tail); k.V2 == 0 || k.V3 != 2 {
		t.Fatalf("after two appends the raw tail holds %+v frames, want its v2 frames, then two v3 records", k)
	}
	fill(3*time.Second, 98)
	compare("after v3 appends")
	if _, err := old.Compact(store.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	csegs, err := filepath.Glob(filepath.Join(dir, "*.cseg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csegs {
		if k := store.FrameKinds(t, path); k.V3 == 0 || k.V1+k.V2 != 0 {
			t.Fatalf("%s holds %+v frames after Compact, want v3 only", filepath.Base(path), k)
		}
	}
	compare("after Compact")
	closeBoth()
	openBoth()
	compare("after a reopen")
	old.Close()
	twin.Close()
}

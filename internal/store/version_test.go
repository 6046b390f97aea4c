package store_test

// The record-version contract across formats, end to end: this version
// and the one before. A store the previous build left in v4 frames
// opens under this build, takes v5 appends into its recovered v4 tails,
// and answers every raw and expression query with the bytes a twin that
// was v5 from the start answers — before Compact, after it (which
// rewrites every sealed segment as v5, leaving out again the columns the
// appends' screen derives) and after a reopen. The appends are an
// engine's, so both stores' records leave their derived columns out and
// their answers recompute them. A store holding an older frame does not
// open, and says how to rewrite it.

import (
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
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
	h := query.Handler(map[string]*store.Store{"": st})
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
		store.FillEngine(t, old, start, time.Second, n, 4, &seedOld)
		store.FillEngine(t, twin, start, time.Second, n, 4, &seedTwin)
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
	// segment the previous build left, not one this build seals at once.
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
				t.Fatalf("%s, %s: the old store answers\n%.1500s\nits v5 twin\n%.1500s", when, contractQueries[i].Encode(), got, want[i])
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
	// The previous build's directory: every segment, compacted or live,
	// each tier's tail included, in v4 frames.
	dir := old.Dir()
	store.RewriteSegmentsV4(t, store.SegmentFiles(t, dir)...)
	segs, err := filepath.Glob(filepath.Join(dir, "raw-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("%d live raw segments (%v), want a sealed one and the tail", len(segs), err)
	}
	tail := segs[len(segs)-1]
	openBoth()
	if k := store.FrameKinds(t, tail); k.V4 == 0 || k.V5 != 0 || k.Omitting == 0 {
		t.Fatalf("the raw tail holds %+v frames, want v4 only, some leaving derived columns out", k)
	}
	compare("as the previous build left it")

	before := store.FrameKinds(t, tail)
	fill(time.Second, 2)
	if k := store.FrameKinds(t, tail); k.V4 != before.V4 || k.V5 != 2 || k.Omitting != before.Omitting+2 {
		t.Fatalf("after two appends the raw tail holds %+v frames, want its %d v4 frames, then two v5 records leaving columns out", k, before.V4)
	}
	// Enough to seal the tail and v5 segments after it, for Compact.
	fill(3*time.Second, 398)
	compare("after v5 appends")
	if _, err := old.Compact(store.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	csegs, err := filepath.Glob(filepath.Join(dir, "*.cseg"))
	if err != nil {
		t.Fatal(err)
	}
	omitting := 0
	for _, path := range csegs {
		k := store.FrameKinds(t, path)
		if k.V5 == 0 || k.V4 != 0 {
			t.Fatalf("%s holds %+v frames after Compact, want v5 only", filepath.Base(path), k)
		}
		omitting += k.Omitting
	}
	if omitting == 0 {
		t.Fatal("no compacted record leaves a derived column out: Compact dropped the omission")
	}
	compare("after Compact")
	closeBoth()
	openBoth()
	compare("after a reopen")
	old.Close()
	twin.Close()
}

// TestOlderVersionRefusedAtOpen: a store holding a frame older than v4
// does not open. The error names the segment and the frame's version,
// and says what rewrites it: a v4 build's Compact.
func TestOlderVersionRefusedAtOpen(t *testing.T) {
	for name, payload := range map[string][]byte{
		"v3": {0x03, 0x01, 0x80, 0x08, 0x00, 0x00},
		"v2": {0x02, 0x00, 0x00},
		"v1": []byte(`{"v":1,"time_s":1,"rows":[],"machine":{}}`),
	} {
		dir := t.TempDir()
		st := store.MustOpen(t, dir, store.Options{})
		store.FillEngine(t, st, time.Second, time.Second, 3, 2, new(uint64))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "10s-0000000007.seg")
		frame := store.Frame(payload)
		if err := os.WriteFile(seg, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := store.Open(dir, store.Options{})
		for _, want := range []string{"segment " + filepath.Base(seg), "record version " + name[1:], "v4 build's Compact rewrites older sealed segments"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: Open = %v, which does not say %q", name, err, want)
			}
		}
	}
}

package store_test

// The raw plan against the fold it replaced: internal/query answers a
// raw range query (?pid=) as a plan on its engine, and on single-screen
// data its body must be the bytes the store's own Query — kept verbatim
// in refquery_test.go — encoded to. The OpenMetrics body is a function
// of the same result (FuzzQueryJSONIdentity pins its writer), so equal
// JSON, which carries every field, is equal exposition too.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/query"
	"tiptop/internal/store"
)

// TestRawPlanMatchesReference runs step × range over the
// TestCompactGoldenQueryIdentical stores — written as v4 frames by the
// previous build, or live v5 — before and after Compact, with five
// task-less refreshes at the end.
func TestRawPlanMatchesReference(t *testing.T) {
	steps := []float64{0, 0.5, 3, 7, 10, 20, 30, 45, 60, 90, 120, 300, 3600}
	refreshes := 400
	if testing.Short() {
		steps, refreshes = []float64{0, 3, 10, 30, 60, 3600}, 120
	}
	for _, name := range []string{"v4-written", "v5-live"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opt := store.Options{SegmentBytes: 8 << 10}
			st := store.MustOpen(t, dir, opt)
			st.SetColumns([]string{"branch-miss", "llc-load"})
			seed := uint64(42)
			store.FillVaried(t, st, 500*time.Millisecond, 1500*time.Millisecond, refreshes, 8, &seed)
			last := st.LastTime()
			for i := 1; i <= 5; i++ {
				if err := st.AppendSample(&core.Sample{Time: last + time.Duration(i)*time.Second}); err != nil {
					t.Fatal(err)
				}
			}
			if name == "v4-written" {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				store.RewriteSegmentsV4(t, store.SegmentFiles(t, dir)...)
				st = store.MustOpen(t, dir, opt)
			}
			defer st.Close()
			ranges := []store.QueryOptions{
				{PID: -1},
				{PID: 102},
				{PID: 9999}, // absent
				{PID: -1, FromSeconds: 100, ToSeconds: 300},
				{PID: 103, FromSeconds: 61, ToSeconds: 455.5},
				{PID: -1, FromSeconds: last.Seconds() + 0.5, ToSeconds: last.Seconds() + 5}, // task-less
			}
			compareRaw(t, st, steps, ranges)
			if _, err := st.Compact(store.CompactOptions{}); err != nil {
				t.Fatal(err)
			}
			compareRaw(t, st, steps, ranges)
		})
	}
}

// compareRaw requires the query handler's raw body to equal the
// reference Query's result under json.Encoder with SetIndent — what the
// handler wrote before it appended bodies itself.
func compareRaw(t *testing.T, st *store.Store, steps []float64, ranges []store.QueryOptions) {
	t.Helper()
	h := query.Handler(map[string]*store.Store{"": st})
	for _, step := range steps {
		for _, q := range ranges {
			q.StepSeconds = step
			ref, err := st.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(ref); err != nil {
				t.Fatal(err)
			}
			v := url.Values{}
			for name, f := range map[string]float64{"from": q.FromSeconds, "to": q.ToSeconds, "step": q.StepSeconds} {
				v.Set(name, strconv.FormatFloat(f, 'g', -1, 64))
			}
			if q.PID >= 0 {
				v.Set("pid", strconv.Itoa(q.PID))
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/query?"+v.Encode(), nil))
			if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%+v: the raw plan answers %d with\n%.2000s\nthe reference\n%.2000s", q, w.Code, w.Body, want.Bytes())
			}
		}
	}
}

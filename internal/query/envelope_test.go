package query

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"tiptop/internal/remote"
	"tiptop/internal/store"
)

// TestErrorEnvelope drives every failure path of the solo and fleet
// query handlers through one table and asserts the uniform JSON
// envelope: the right status, a parseable {"error","hint","offset"}
// body with Content-Type application/json, and — for expression
// failures — the byte offset and did-you-mean hint carried
// structurally, not just embedded in prose.
func TestErrorEnvelope(t *testing.T) {
	st := seedStore(t, 1, 10)
	solo := Handler(one(st))
	stores := map[string]*store.Store{"a:1": seedStore(t, 1, 10), "b:2": seedStore(t, 1, 10)}
	fleet := Handler(stores)

	intp := func(n int) *int { return &n }
	tests := []struct {
		name       string
		h          http.Handler
		target     string
		status     int
		wantErr    string // substring of .error
		wantHint   string // substring of .hint ("" = hint must be absent)
		wantOffset *int   // nil = offset must be absent
	}{
		{"syntax error carries offset", solo,
			"/api/v1/query?expr=" + url.QueryEscape("delta(INSTRUCTIONS"),
			http.StatusBadRequest, "expected", "", intp(18)},
		{"unknown name carries hint and offset", solo,
			"/api/v1/query?expr=" + url.QueryEscape("delta(CYCLE)"),
			http.StatusBadRequest, `unknown event or column "CYCLE"`, "did you mean CYCLES", intp(6)},
		{"bad step", solo, "/api/v1/query?expr=CYCLES&step=never",
			http.StatusBadRequest, "step", "30s, 1m, 1h", nil},
		{"negative step", solo, "/api/v1/query?expr=CYCLES&step=-10",
			http.StatusBadRequest, "step", "never negative", nil},
		{"bad from", solo, "/api/v1/query?expr=CYCLES&from=soon",
			http.StatusBadRequest, `bad from "soon"`, "", nil},
		{"inverted range", solo, "/api/v1/query?expr=CYCLES&from=100&to=50",
			http.StatusBadRequest, "ends (50s) before it starts (100s)", "want from <= to", nil},
		{"raw negative step", solo, "/api/v1/query?pid=100&step=-10",
			http.StatusBadRequest, "negative step -10", "bucket width", nil},
		{"raw inverted range", solo, "/api/v1/query?pid=100&from=100&to=50",
			http.StatusBadRequest, "ends (50s) before it starts (100s)", "want from <= to", nil},
		{"fleet raw negative step", fleet, "/api/v1/query?pid=100&agent=a:1&step=-10",
			http.StatusBadRequest, "negative step -10", "bucket width", nil},
		{"unknown format", solo, "/api/v1/query?expr=CYCLES&format=yaml",
			http.StatusBadRequest, `unknown format "yaml"`, "", nil},
		{"fleet raw unknown agent", fleet, "/api/v1/query?pid=100&agent=nope",
			http.StatusBadRequest, `unknown agent "nope"`, "agent=a:1|b:2", nil},
		{"fleet raw without agent", fleet, "/api/v1/query?pid=100",
			http.StatusBadRequest, "raw series (pid=) need one agent", "want agent=a:1|b:2", nil},
		{"fleet raw every agent", fleet, "/api/v1/query?pid=100&agent=*",
			http.StatusBadRequest, "raw series (pid=) need one agent", "want agent=a:1|b:2", nil},
		{"fleet expr unknown agent", fleet, "/api/v1/query?expr=CYCLES&step=10&agent=nope",
			http.StatusBadRequest, `unknown agent "nope"`, "agent=a:1|b:2 or agent=*", nil},
		{"fleet merge without step", fleet, "/api/v1/query?expr=CYCLES&agent=*",
			http.StatusBadRequest, "needs an explicit step", "pass step=", nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, httptest.NewRequest("GET", tc.target, nil))
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.status, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e remote.APIError
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("body is not an envelope: %v\n%s", err, w.Body)
			}
			if !strings.Contains(e.Message, tc.wantErr) {
				t.Errorf("error %q lacks %q", e.Message, tc.wantErr)
			}
			if tc.wantHint == "" {
				if e.Hint != "" {
					t.Errorf("unexpected hint %q", e.Hint)
				}
			} else if !strings.Contains(e.Hint, tc.wantHint) {
				t.Errorf("hint %q lacks %q", e.Hint, tc.wantHint)
			}
			switch {
			case tc.wantOffset == nil && e.Offset != nil:
				t.Errorf("unexpected offset %d", *e.Offset)
			case tc.wantOffset != nil && e.Offset == nil:
				t.Errorf("offset absent, want %d", *tc.wantOffset)
			case tc.wantOffset != nil && *e.Offset != *tc.wantOffset:
				t.Errorf("offset %d, want %d", *e.Offset, *tc.wantOffset)
			}
		})
	}
}

// TestHandlerAcceptNegotiation: an Accept header asking for
// application/openmetrics-text selects the exposition format on both
// solo and fleet expression queries, and an explicit ?format= always
// wins over it.
func TestHandlerAcceptNegotiation(t *testing.T) {
	st := seedStore(t, 1, 63)
	stores := map[string]*store.Store{"a:1": seedStore(t, 1, 63)}
	cases := []struct {
		name   string
		h      http.Handler
		target string
	}{
		{"solo", Handler(one(st)), "/api/v1/query?expr=delta(CYCLES)&step=1m"},
		{"fleet", Handler(stores),
			"/api/v1/query?expr=delta(CYCLES)&step=1m&agent=*"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", tc.target, nil)
			req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, body %s", w.Code, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
				t.Fatalf("Content-Type %q, want openmetrics", ct)
			}
			if !strings.Contains(w.Body.String(), "# EOF") {
				t.Fatalf("body is not an exposition:\n%s", w.Body)
			}

			// The explicit parameter wins over the Accept header.
			req = httptest.NewRequest("GET", tc.target+"&format=json", nil)
			req.Header.Set("Accept", "application/openmetrics-text")
			w = httptest.NewRecorder()
			tc.h.ServeHTTP(w, req)
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("format=json with openmetrics Accept: Content-Type %q", ct)
			}
		})
	}
}

// TestUnencodableResultIs500: a result carrying a value JSON cannot
// express — a mean that overflowed, say — is a 500 envelope whose hint
// names the series, never the empty 200 a failed json.Encoder left
// behind; the exposition format, which can carry it, still answers.
func TestUnencodableResultIs500(t *testing.T) {
	huge := "/api/v1/query?expr=" + url.QueryEscape("1e308 + CYCLES * 0")
	solo := Handler(one(seedStore(t, 2, 10)))
	respond := func(res response) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { (&params{}).respond(w, res) })
	}
	tests := []struct {
		name     string
		h        http.Handler
		target   string
		wantHint string
	}{
		{"mean overflows over the range", solo, huge, `series "total" (mean +Inf)`},
		{"NaN point", respond(&Result{Series: []Series{{Key: "ok"}, {Key: "pid:7", Points: []Point{{Value: math.NaN()}}}}}),
			"/", `series "pid:7"`},
		{"infinite resolution", respond(&Result{ResolutionSeconds: math.Inf(1)}), "/", "resolution or step"},
		{"raw series", respond(&RawResult{Series: []RawSeries{{PID: 1}, {PID: 7, TID: 8, Command: "job",
			Points: []RawPoint{{Values: []float64{0, math.Inf(-1)}}}}}}), "/", "series pid:7 tid:8 (job)"},
		{"raw machine roll-up", respond(&RawResult{Machine: []RawPoint{{IPC: math.NaN()}}}), "/", "machine roll-up"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, httptest.NewRequest("GET", tc.target, nil))
			var e remote.APIError
			if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusInternalServerError || err != nil {
				t.Fatalf("status %d (%v), want a 500 envelope; body %q", w.Code, err, w.Body)
			}
			if !strings.Contains(e.Message, "not encodable as JSON") || !strings.Contains(e.Hint, tc.wantHint) ||
				!strings.Contains(e.Hint, "format=openmetrics") {
				t.Errorf("envelope %+v, want a hint naming %q and the format that can carry it", e, tc.wantHint)
			}
		})
	}
	code, body := get(t, solo, huge+"&format=openmetrics")
	if code != http.StatusOK || !strings.Contains(body, "} 1e+308 ") || !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("format=openmetrics of the same query: status %d, body %q", code, body)
	}
}

// TestResponsesCarryContentLength: both formats of both query kinds are
// written as one buffer, so the client sees its length up front.
func TestResponsesCarryContentLength(t *testing.T) {
	h := Handler(one(seedStore(t, 2, 10)))
	for _, target := range []string{"/api/v1/query", "/api/v1/query?expr=CYCLES", "/api/v1/query?format=om", "/api/v1/query?expr=CYCLES&format=om"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if got := w.Header().Get("Content-Length"); w.Code != http.StatusOK || got != strconv.Itoa(w.Body.Len()) || w.Body.Len() == 0 {
			t.Errorf("%s: status %d, Content-Length %q for a %d-byte body", target, w.Code, got, w.Body.Len())
		}
	}
}

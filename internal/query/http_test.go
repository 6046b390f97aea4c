package query

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiptop/internal/store"
)

// one is the fleet a solo daemon serves: a single unlabelled store.
func one(st *store.Store) map[string]*store.Store {
	return map[string]*store.Store{"": st}
}

func get(t *testing.T, h http.Handler, target string) (int, string) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	return w.Code, w.Body.String()
}

func TestHandlerParseErrorsAre400(t *testing.T) {
	st := seedStore(t, 1, 10)
	h := Handler(one(st), nil)

	// Syntax error: 400, never 500, and the offending position named.
	code, body := get(t, h, "/api/v1/query?expr="+strings.ReplaceAll("delta(INSTRUCTIONS", " ", "%20"))
	if code != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d, want 400; body %s", code, body)
	}
	if !strings.Contains(body, "offset") {
		t.Fatalf("syntax error body %q does not name the offset", body)
	}

	// Unknown event name: 400 with the nearest registered names.
	code, body = get(t, h, "/api/v1/query?expr=delta(CYCLE)")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown name: status %d, want 400; body %s", code, body)
	}
	if !strings.Contains(body, "did you mean") || !strings.Contains(body, "CYCLES") {
		t.Fatalf("unknown name body %q lacks a CYCLES suggestion", body)
	}

	// Bad step.
	if code, body = get(t, h, "/api/v1/query?expr=CYCLES&step=never"); code != http.StatusBadRequest {
		t.Fatalf("bad step: status %d, body %s", code, body)
	}

	// pid= is the raw form's filter: beside expr= it is refused, not
	// dropped (every task's data would come back with a 200).
	code, body = get(t, h, "/api/v1/query?expr=CYCLES&pid=100")
	if code != http.StatusBadRequest || !strings.Contains(body, "pid=") || !strings.Contains(body, `"hint"`) {
		t.Fatalf("expr with pid: status %d, body %s; want a 400 naming pid= with a hint", code, body)
	}
}

func TestHandlerExprOverStore(t *testing.T) {
	st := seedStore(t, 2, 63)
	h := Handler(one(st), nil)
	code, body := get(t, h, "/api/v1/query?expr=delta(INSTRUCTIONS)/delta(CYCLES)&step=1m")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if res.StepSeconds != 60 || len(res.Series) != 3 {
		t.Fatalf("result = step %g, %d series; want 60s and 3", res.StepSeconds, len(res.Series))
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Value != 2 {
				t.Fatalf("series %q = %v, want IPC 2", s.Key, p.Value)
			}
		}
	}

	// A rank count past the series there are keeps them all; it is never
	// a size (this GET was an out-of-memory exit).
	code, body = get(t, h, "/api/v1/query?expr=topk(1000000000,delta(INSTRUCTIONS)/delta(CYCLES))&step=1m")
	var ranked Result
	if err := json.Unmarshal([]byte(body), &ranked); code != http.StatusOK || err != nil {
		t.Fatalf("topk(1e9, …): status %d, %v; body %s", code, err, body)
	}
	if ranked.K != 1e9 || !reflect.DeepEqual(ranked.Series, res.Series) {
		t.Fatalf("topk(1e9, …) = k %d, %d series; want the %d unranked series", ranked.K, len(ranked.Series), len(res.Series))
	}

	// Raw queries (no expr) keep the PR-5 contract.
	code, body = get(t, h, "/api/v1/query?pid=100")
	if code != http.StatusOK {
		t.Fatalf("raw query: status %d, body %s", code, body)
	}
	if !strings.Contains(body, "series") {
		t.Fatalf("raw query body %q is not a store response", body)
	}
}

// TestNonFiniteSamplesStayQueryable: NaN and ±Inf in a sample (a ratio
// column over a zero denominator, say) are stored as 0. The v2 float
// encoding would otherwise persist them bit-exactly, and every JSON
// encode of a range touching them would fail from then on.
func TestNonFiniteSamplesStayQueryable(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetColumns([]string{"a", "b", "c"})
	for i := 1; i <= 13; i++ { // past t=20s: the 10s tier flushes a bucket of them too
		s := sampleAt(time.Duration(i)*2*time.Second, 2)
		s.Rows[0].CPUPct = math.NaN()
		s.Rows[0].Values = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		s.Rows[1].CPUPct = math.Inf(1)
		s.Rows[1].Values = []float64{1, 2, 3}
		if err := st.AppendSample(s); err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(s.Rows[0].CPUPct) || !math.IsInf(s.Rows[0].Values[1], 1) {
			t.Fatal("AppendSample sanitised the caller's sample in place")
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetColumns([]string{"a", "b", "c"})
	h := Handler(one(st), nil)
	for _, target := range []string{"/api/v1/query", "/api/v1/query?step=10"} {
		code, body := get(t, h, target)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", target, code, body)
		}
		var res RawResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", target, err, body)
		}
		if len(res.Series) != 2 || len(res.Series[0].Points) == 0 || len(res.Machine) == 0 {
			t.Fatalf("%s: %d series, %d machine points", target, len(res.Series), len(res.Machine))
		}
		for _, p := range res.Series[0].Points {
			if p.CPUPct != 0 || len(p.Values) != 3 || p.Values[0] != 0 || p.Values[1] != 0 || p.Values[2] != 0 {
				t.Fatalf("%s: non-finite inputs read back as %+v, want zeros", target, p)
			}
		}
		for _, p := range res.Series[1].Points {
			if p.CPUPct != 0 || p.Values[1] != 2 {
				t.Fatalf("%s: row with one infinite field read back as %+v", target, p)
			}
		}
		for _, p := range res.Machine {
			if p.CPUPct != 0 {
				t.Fatalf("%s: machine roll-up cpu_pct = %g, want the sum of the sanitised rows (0)", target, p.CPUPct)
			}
		}
	}
	code, body := get(t, h, "/api/v1/query?expr=avg_over_time(b)")
	if code != http.StatusOK {
		t.Fatalf("expression query: status %d, body %s", code, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("expression query: bad JSON: %v\n%s", err, body)
	}
	if len(res.Series) == 0 {
		t.Fatal("expression query returned no series")
	}
}

func TestHandlerOpenMetrics(t *testing.T) {
	st := seedStore(t, 1, 63)
	h := Handler(one(st), nil)
	code, body := get(t, h, "/api/v1/query?expr=delta(INSTRUCTIONS)/delta(CYCLES)&step=1m&format=openmetrics")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	for _, want := range []string{"# TYPE tiptop_query gauge", "tiptop_query{", `key="total"`, "# EOF"} {
		if !strings.Contains(body, want) {
			t.Fatalf("openmetrics body lacks %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "NaN") || strings.Contains(body, "Inf") {
		t.Fatalf("openmetrics body carries non-finite values:\n%s", body)
	}
}

// TestOpenMetricsLabelEscapes: a comm is arbitrary bytes
// (prctl(PR_SET_NAME)), and the exposition format defines three escapes
// and no others. Both range writers must emit \\, \" and \n for those
// three and every other byte — tab, DEL, UTF-8 — raw; Go's \t, \x7f or
// \u00e9 would be read as a literal backslash and a letter.
func TestOpenMetricsLabelEscapes(t *testing.T) {
	const nasty = "a\tb\"c\\d\ne\x7fé"
	const escaped = "a\tb\\\"c\\\\d\\ne\x7fé" // the tab, DEL and é are raw bytes
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.SetColumns([]string{nasty})
	for i := 1; i <= 3; i++ {
		s := sampleAt(time.Duration(i)*time.Second, 1)
		s.Rows[0].Info.User, s.Rows[0].Info.Comm = nasty, nasty
		if err := st.AppendSample(s); err != nil {
			t.Fatal(err)
		}
	}
	h := Handler(one(st), nil)
	for _, tc := range []struct {
		target string
		labels []string
	}{
		{"/api/v1/query?pid=100&format=openmetrics", []string{"user", "command", "column"}},
		{"/api/v1/query?expr=CYCLES&format=openmetrics", []string{"user", "command"}},
		{"/api/v1/query?expr=CYCLES+by+command&format=openmetrics", []string{"key"}},
	} {
		code, body := get(t, h, tc.target)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", tc.target, code, body)
		}
		for _, l := range tc.labels {
			if !strings.Contains(body, l+`="`+escaped+`"`) {
				t.Errorf("%s: no %s label carrying %q:\n%s", tc.target, l, escaped, body)
			}
		}
		for _, goEscape := range []string{`\t`, `\x`, `\u`} {
			if strings.Contains(body, goEscape) {
				t.Errorf("%s: body carries the Go escape %s:\n%s", tc.target, goEscape, body)
			}
		}
	}
}

func TestHandlerLiveFallback(t *testing.T) {
	rec := seedRecorder(2, 20)
	h := Handler(nil, rec)

	// No store: both query shapes run against the live rings.
	want, err := RunRaw(Rings(rec), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Series) != 1 || len(want.Series[0].Points) != 20 || len(want.Machine) != 20 {
		t.Fatalf("raw series of the rings: %+v, want pid 100's 20 points and 20 machine points", want)
	}
	if code, body := get(t, h, "/api/v1/query?pid=100"); code != http.StatusOK || body != string(want.AppendJSON(nil)) {
		t.Fatalf("raw query without store: status %d, body %s", code, body)
	}
	code, body := get(t, h, "/api/v1/query?expr=delta(INSTRUCTIONS)/delta(CYCLES)&step=10")
	if code != http.StatusOK {
		t.Fatalf("live expr: status %d, body %s", code, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("live expr: %d series, want 3", len(res.Series))
	}
}

func TestFleetHandler(t *testing.T) {
	stores := map[string]*store.Store{
		"a:1": seedStore(t, 2, 63),
		"b:2": seedStore(t, 2, 63),
	}
	h := Handler(stores, nil)

	// agent=* merges the fleet.
	code, body := get(t, h, "/api/v1/query?expr=delta(INSTRUCTIONS)/delta(CYCLES)&step=1m&agent=*")
	if code != http.StatusOK {
		t.Fatalf("agent=*: status %d, body %s", code, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 { // total + 2 tasks × 2 agents
		t.Fatalf("agent=*: %d series, want 5", len(res.Series))
	}
	if !res.Series[0].Total || res.Series[0].Points[0].Value != 2 {
		t.Fatalf("fleet total = %+v, want recomputed Σinstr/Σcycles = 2", res.Series[0])
	}

	// A named agent restricts the merge.
	code, body = get(t, h, "/api/v1/query?expr=delta(INSTRUCTIONS)&step=1m&agent=a:1")
	if code != http.StatusOK {
		t.Fatalf("agent=a:1: status %d, body %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("agent=a:1: %d series, want 3", len(res.Series))
	}

	// Unknown agents are a 400 naming the known ones.
	if code, body = get(t, h, "/api/v1/query?expr=CYCLES&step=1m&agent=nope"); code != http.StatusBadRequest || !strings.Contains(body, "a:1") {
		t.Fatalf("unknown agent: status %d, body %s", code, body)
	}
	// Merging without a step is the caller's error.
	if code, body = get(t, h, "/api/v1/query?expr=CYCLES&agent=*"); code != http.StatusBadRequest || !strings.Contains(body, "step") {
		t.Fatalf("fleet merge without step: status %d, body %s", code, body)
	}
}

func TestQueryExprClient(t *testing.T) {
	st := seedStore(t, 2, 63)
	srv := httptest.NewServer(Handler(one(st), nil))
	defer srv.Close()
	c, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryExpr("delta(INSTRUCTIONS)/delta(CYCLES)", Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 || res.Series[0].Points[0].Value != 2 {
		t.Fatalf("client result = %+v", res)
	}
	// Server-side errors surface as client errors, not decode failures.
	if _, err := c.QueryExpr("delta(CYCLE)", Options{}); err == nil || !strings.Contains(err.Error(), "CYCLES") {
		t.Fatalf("client error = %v, want the server's suggestion passed through", err)
	}
}

// TestOneRangeParser: raw and expression queries read from/to/step with
// one parser — a raw query accepts the duration suffixes an expression
// query does (step=1m was a 400 while expr=…&step=1m worked), and both
// reject a negative step and an inverted range with the same envelope.
func TestOneRangeParser(t *testing.T) {
	h := Handler(one(seedStore(t, 2, 63)), nil)
	for _, q := range []string{"pid=100", "expr=delta(CYCLES)"} {
		code, want := get(t, h, "/api/v1/query?"+q+"&step=60")
		if code != http.StatusOK {
			t.Fatalf("%s&step=60: status %d, body %s", q, code, want)
		}
		for _, step := range []string{"1m", "60s"} {
			if code, body := get(t, h, "/api/v1/query?"+q+"&step="+step); code != http.StatusOK || body != want {
				t.Errorf("%s&step=%s: status %d, body differs from step=60:\n%s", q, step, code, body)
			}
		}
	}
	// A value that is not finite, or beyond what a time.Duration holds,
	// would wrap in the conversion and select the whole history.
	for _, bad := range []string{"step=-10", "step=-1m", "step=never", "from=100&to=50",
		"from=1e300", "from=Inf", "from=-Inf", "from=NaN", "to=Inf", "to=NaN",
		"step=1e300", "step=Inf", "step=NaN"} {
		rawCode, raw := get(t, h, "/api/v1/query?pid=100&"+bad)
		exprCode, expr := get(t, h, "/api/v1/query?expr=CYCLES&"+bad)
		name, _, _ := strings.Cut(bad, "=")
		if rawCode != http.StatusBadRequest || exprCode != rawCode || raw != expr || !strings.Contains(raw, `"hint"`) || !strings.Contains(raw, name) {
			t.Errorf("%s: raw answers %d %s, expr %d %s; want one 400 envelope naming %s, with a hint", bad, rawCode, raw, exprCode, expr, name)
		}
	}
}

// TestSoloIsFleetOfOne: one store served as a solo daemon serves it
// ({"": st}) and as the only agent of an aggregator ({"a:1": st},
// selected by name, by agent=* or by default) answers with the same
// bytes — raw series, one pid, grouped and ranked expressions, JSON and
// OpenMetrics. Only per-task expression series differ, by design and by
// exactly the agent label.
func TestSoloIsFleetOfOne(t *testing.T) {
	st := seedStore(t, 3, 63)
	solo := Handler(one(st), nil)
	fleet := Handler(map[string]*store.Store{"a:1": st}, nil)
	for _, q := range []string{
		"",
		"step=10",
		"pid=101&from=20&to=90",
		"pid=101&step=1m&format=openmetrics",
		"expr=rate(INSTRUCTIONS)+by+user&step=10",
		"expr=topk(1,delta(CYCLES))+by+command&step=1m",
		"expr=avg_over_time(pidcol)+by+user&step=60&format=openmetrics",
	} {
		code, want := get(t, solo, "/api/v1/query?"+q)
		if code != http.StatusOK {
			t.Fatalf("solo %q: status %d, body %s", q, code, want)
		}
		// A solo daemon has no label to select by and ignores the selector.
		if code, got := get(t, solo, "/api/v1/query?"+q+"&agent=a:1"); code != http.StatusOK || got != want {
			t.Errorf("solo %q&agent=a:1: status %d, body differs:\n%s\nvs\n%s", q, code, got, want)
		}
		for _, agent := range []string{"", "&agent=a:1", "&agent=*"} {
			if code, got := get(t, fleet, "/api/v1/query?"+q+agent); code != http.StatusOK || got != want {
				t.Errorf("fleet of one %q%s: status %d, body differs from solo:\n%s\nvs\n%s", q, agent, code, got, want)
			}
		}
	}

	// Per-task series carry the agent: the same result once it is removed.
	const q = "/api/v1/query?expr=delta(INSTRUCTIONS)/delta(CYCLES)&step=10"
	_, want := get(t, solo, q)
	_, got := get(t, fleet, q)
	var res Result
	if err := json.Unmarshal([]byte(got), &res); err != nil {
		t.Fatal(err)
	}
	for i := range res.Series {
		s := &res.Series[i]
		if !s.Total && s.Agent != "a:1" {
			t.Fatalf("fleet series %q carries agent %q, want a:1", s.Key, s.Agent)
		}
		s.Agent, s.Key = "", strings.TrimPrefix(s.Key, "a:1/")
	}
	stripped, _ := json.MarshalIndent(&res, "", "  ")
	if string(stripped)+"\n" != want {
		t.Errorf("per-task expression differs beyond the agent label:\n%s\nvs\n%s", stripped, want)
	}
}

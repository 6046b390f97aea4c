package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestGroupByClause(t *testing.T) {
	e := MustCompile("rate(INSTRUCTIONS) by user")
	if e.GroupBy() != "user" {
		t.Fatalf("GroupBy = %q", e.GroupBy())
	}
	if got, want := e.String(), "rate(INSTRUCTIONS) by user"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	// Fixpoint through the clause.
	if re := MustCompile(e.String()); re.String() != e.String() {
		t.Fatalf("by-clause rendering not a fixpoint: %q", re.String())
	}
	if MustCompile("A + B").GroupBy() != "" {
		t.Fatal("ungrouped expression reports a group key")
	}
	for _, bad := range []string{
		"A by",         // missing key
		"A by pid",     // not a group key
		"A by user B",  // trailing tokens
		"A by user by", // doubled clause
		"(A by user)",  // clause is top-level only
		"ratio(A by user, B)",
	} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) unexpectedly succeeded", bad)
		}
	}
	// The error for a bad group key names the alternatives.
	_, err := Compile("A by pid")
	if err == nil || !strings.Contains(err.Error(), "user") {
		t.Fatalf("bad group key error = %v, want mention of valid keys", err)
	}
}

func TestRateBuiltin(t *testing.T) {
	e := MustCompile("rate(INSTRUCTIONS)")
	env := MapEnv{"INSTRUCTIONS": 2e9, VarDeltaNS: 2e9} // 2G instr over 2s
	v, err := e.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1e9 {
		t.Fatalf("rate = %v, want 1e9/s", v)
	}
	// Unknown or degenerate interval yields 0, not Inf.
	for _, env := range []MapEnv{
		{"INSTRUCTIONS": 5},
		{"INSTRUCTIONS": 5, VarDeltaNS: 0},
		{"INSTRUCTIONS": 5, VarDeltaNS: -1},
	} {
		if v, _ := e.Eval(env); v != 0 {
			t.Fatalf("rate with DELTA_NS=%v = %v, want 0", env[VarDeltaNS], v)
		}
	}
	// delta is the identity on interval deltas.
	if v, _ := MustCompile("delta(INSTRUCTIONS)").Eval(MapEnv{"INSTRUCTIONS": 7}); v != 7 {
		t.Fatalf("delta = %v, want 7", v)
	}
}

func TestEvalTotality(t *testing.T) {
	// The unified rule: evaluation is total, non-finite results clamp
	// to 0 on the instant path and the bucket path alike.
	cases := []string{
		"A / Z",                   // division by zero
		"A % Z",                   // modulo zero
		"1e308 * 10",              // overflow to +Inf
		"-1e308 * 10",             // overflow to -Inf
		"1e308 * 10 - 1e308 * 10", // would be Inf-Inf = NaN without the clamp
		"rate(A)",                 // no DELTA_NS bound
	}
	env := MapEnv{"A": 6, "Z": 0}
	for _, src := range cases {
		e := MustCompile(src)
		v, err := e.Eval(env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Eval(%q) = %v, want finite", src, v)
		}
		bound, err := e.Bind([]string{"A", "Z"})
		if err != nil {
			t.Fatalf("Bind(%q): %v", src, err)
		}
		row := []float64{env["A"], env["Z"]}
		bv := bound.EvalBucket(row, [][]float64{row}, make([]float64, bound.Depth()))
		if math.IsNaN(bv) || math.IsInf(bv, 0) {
			t.Errorf("EvalBucket(%q) = %v, want finite", src, bv)
		}
		if v != bv {
			t.Errorf("instant/bucket disagree for %q: %v vs %v", src, v, bv)
		}
	}
}

func TestEvalBucketOverTime(t *testing.T) {
	layout := []string{"X", VarDeltaNS}
	sum := []float64{60, 3e9} // bucket totals
	points := [][]float64{{10, 1e9}, {20, 1e9}, {30, 1e9}}
	cases := []struct {
		src  string
		want float64
	}{
		{"avg_over_time(X)", 20},
		{"min_over_time(X)", 10},
		{"max_over_time(X)", 30},
		{"sum_over_time(X)", 60},
		{"X", 60},                      // identifiers read the bucket row
		{"rate(X)", 20},                // 60 over 3s
		{"max_over_time(rate(X))", 30}, // rate per point: 10, 20, 30
		{"avg_over_time(X) + X", 80},
		{"max_over_time(X) - min_over_time(X)", 20},
		{"sum_over_time(max_over_time(X))", 60}, // a nested fold sees one point
	}
	for _, tc := range cases {
		bound, err := MustCompile(tc.src).Bind(layout)
		if err != nil {
			t.Fatalf("Bind(%q): %v", tc.src, err)
		}
		stack := make([]float64, bound.Depth())
		if v := bound.EvalBucket(sum, points, stack); math.Abs(v-tc.want) > 1e-9 {
			t.Errorf("EvalBucket(%q) = %v, want %v", tc.src, v, tc.want)
		}
	}
	// An empty bucket folds to 0, never panics — and is not an instant,
	// where the fold is the identity.
	bound, err := MustCompile("avg_over_time(X)").Bind(layout)
	if err != nil {
		t.Fatal(err)
	}
	stack := make([]float64, bound.Depth())
	if v := bound.EvalBucket(sum, nil, stack); v != 0 {
		t.Fatalf("empty bucket: %v, want 0", v)
	}
	if v := bound.Eval(sum, stack); v != 60 {
		t.Fatalf("instant: %v, want 60", v)
	}
}

func TestSplitTopK(t *testing.T) {
	k, inner, err := MustCompile("topk(3, rate(CYCLES)) by user").SplitTopK()
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 || inner == nil {
		t.Fatalf("k=%d inner=%v", k, inner)
	}
	if inner.String() != "rate(CYCLES) by user" {
		t.Fatalf("inner = %q", inner.String())
	}
	if inner.GroupBy() != "user" {
		t.Fatalf("inner GroupBy = %q, want the clause preserved", inner.GroupBy())
	}

	// Not a topk expression: no error, no split.
	k, inner, err = MustCompile("rate(CYCLES)").SplitTopK()
	if err != nil || k != 0 || inner != nil {
		t.Fatalf("non-topk split: k=%d inner=%v err=%v", k, inner, err)
	}

	// Malformed uses carry a position in the error.
	for _, bad := range []string{
		"topk(CYCLES, A)",     // k not a literal
		"topk(0, A)",          // k not positive
		"topk(2.5, A)",        // k not an integer
		"1 + topk(3, A)",      // not outermost
		"topk(2, topk(3, A))", // nested
	} {
		if _, _, err := MustCompile(bad).SplitTopK(); err == nil {
			t.Errorf("SplitTopK(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestSeriesOnlyAndNeedsPointwise(t *testing.T) {
	if why := MustCompile("ratio(A, B)").SeriesOnly(); why != "" {
		t.Fatalf("plain column flagged series-only: %q", why)
	}
	if why := MustCompile("A by user").SeriesOnly(); why == "" {
		t.Fatal("by-clause not flagged series-only")
	}
	if why := MustCompile("topk(2, A)").SeriesOnly(); why == "" {
		t.Fatal("topk not flagged series-only")
	}
	if MustCompile("ratio(A, B)").NeedsPointwise() {
		t.Fatal("plain ratio should not need pointwise eval")
	}
	if !MustCompile("1 + avg_over_time(A)").NeedsPointwise() {
		t.Fatal("over_time should need pointwise eval")
	}
	if n := MustCompile("A + B * C").NodeCount(); n != 5 {
		t.Fatalf("NodeCount = %d, want 5", n)
	}
}

func TestSuggestNames(t *testing.T) {
	known := []string{"INSTRUCTIONS", "CYCLES", "CACHE_MISSES", "BRANCHES"}
	got := SuggestNames("INSN", known)
	// Nothing within distance for a 4-char name — limit is 2.
	if len(got) != 0 {
		t.Fatalf("SuggestNames(INSN) = %v", got)
	}
	got = SuggestNames("CYCLE", known)
	if len(got) == 0 || got[0] != "CYCLES" {
		t.Fatalf("SuggestNames(CYCLE) = %v, want CYCLES first", got)
	}
	got = SuggestNames("instructions", known)
	if len(got) == 0 || got[0] != "INSTRUCTIONS" {
		t.Fatalf("SuggestNames(instructions) = %v (case-insensitive match expected)", got)
	}
	if hint := UnknownNameHint("CYCLE", known); hint != "did you mean CYCLES?" {
		t.Fatalf("UnknownNameHint(CYCLE) = %q", hint)
	}
}

func TestParseStep(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"", 0, true},
		{"30", 30, true},
		{"30s", 30, true},
		{"1m", 60, true},
		{"1h", 3600, true},
		{"0.5m", 30, true},
		{"-5", 0, false},
		{"abc", 0, false},
		{"m", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseStep(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseStep(%q) err = %v, ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseStep(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

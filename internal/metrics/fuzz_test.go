package metrics

import (
	"math"
	"strings"
	"testing"
)

// TestParseExprTable pins the parser's behaviour on the inputs the fuzz
// target is seeded with: unary minus, division by zero, deep nesting
// and malformed input.
func TestParseExprTable(t *testing.T) {
	env := MapEnv{"A": 6, "B": 3, "Z": 0}
	evals := []struct {
		src  string
		want float64
	}{
		{"-A", -6},
		{"--A", 6},
		{"-(-(-A))", -6},
		{"-A + B", -3},
		{"-A * -B", 18},
		{"A / Z", 0},  // division by zero yields 0, not Inf
		{"A % Z", 0},  // modulo zero likewise
		{"0 / 0", 0},  // constant fold path too
		{"-A / Z", 0}, // sign does not leak through the zero guard
		{"ratio(A, Z)", 0},
		{"A / (B - 3)", 0},
		{"(((((A)))))", 6},
		{strings.Repeat("(", 50) + "A" + strings.Repeat(")", 50), 6},
		{"1 ? -A : A / Z", -6},
	}
	for _, tc := range evals {
		e, err := Compile(tc.src)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.src, err)
			continue
		}
		got, err := e.Eval(env)
		if err != nil {
			t.Errorf("Eval(%q): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Eval(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}

	bad := []string{
		"",
		"(",
		")",
		"A +",
		"+ * A",
		"A B",
		"ratio(A)",       // arity
		"ratio(A, B, A)", // arity
		"nosuchfn(A)",    // unknown function
		"A ? B",          // missing ':'
		"1..2",           // bad number
		"A @ B",          // bad rune
		"ratio(A, B",     // unclosed call
		"-",              // dangling unary
		"--",             // dangling chain
		strings.Repeat("(", maxParseDepth) + "A" + strings.Repeat(")", maxParseDepth),
		strings.Repeat("-", maxExprDepth) + "A",    // a tree one level too tall
		"A" + strings.Repeat("+A", maxExprDepth),   // so is a chain: it leans left
		"A" + strings.Repeat("?A:A", maxExprDepth), // or right
		strings.Repeat("abs(", maxExprDepth) + "A" + strings.Repeat(")", maxExprDepth),
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) unexpectedly succeeded", src)
		}
	}

	// Nesting inside the bounds compiles, and so does its canonical form
	// — which parenthesises every node and echoes through Result.Expr and
	// stored <expr>s: accepted once, accepted rendered (ROADMAP N5's two
	// reproducers are the unary chain and, refused above, the long sum).
	for _, ok := range []string{
		strings.Repeat("(", maxExprDepth) + "A" + strings.Repeat(")", maxExprDepth),
		strings.Repeat("-", 133) + "0",
		strings.Repeat("-", maxExprDepth-1) + "A",
		"A" + strings.Repeat("+A", maxExprDepth-1),
		"A" + strings.Repeat("-(A", maxExprDepth/2-1) + strings.Repeat(")", maxExprDepth/2-1),
		"A" + strings.Repeat("?A:A", maxExprDepth-1),
		strings.Repeat("abs(", maxExprDepth-1) + "A" + strings.Repeat(")", maxExprDepth-1),
	} {
		e, err := Compile(ok)
		if err != nil {
			t.Errorf("Compile(%.20q…): %v", ok, err)
			continue
		}
		re, err := Compile(e.String())
		if err != nil {
			t.Errorf("canonical form of %.20q… does not recompile: %v", ok, err)
		} else if re.String() != e.String() {
			t.Errorf("rendering of %.20q… is not a fixpoint", ok)
		}
	}
}

// compileSeeds is the corpus both fuzz targets start from.
var compileSeeds = []string{
	"ratio(INSTRUCTIONS, CYCLES)",
	"per100(CACHE_MISSES, INSTRUCTIONS)",
	"mega(CYCLES)",
	"-A + B*C / (D-1)",
	"A / 0",
	"-(-(-X))",
	"A > B ? A : clamp(B, 0, 1)",
	"1e9 % 7",
	"((((((A))))))",
	"min(max(A, B), sqrt(C))",
	"A == B",
	"bogus(",
	")(",
	"1..5",
	"rate(INSTRUCTIONS)",
	"delta(INSTRUCTIONS) / delta(CYCLES)",
	"topk(5, rate(CYCLES))",
	"avg_over_time(ratio(INSTRUCTIONS, CYCLES))",
	"max_over_time(CPU_PCT) by user",
	"sum_over_time(CACHE_MISSES) by command",
	"rate(INSTRUCTIONS) by agent",
	"topk(3, min_over_time(A + B)) by user",
	"A by bogus",
	"topk(A, B)",
}

// FuzzParseExpr throws arbitrary input at the compiler. Invariants for
// every input that compiles:
//
//   - the canonical rendering (String) recompiles, and its own
//     rendering is a fixpoint;
//   - evaluation never panics: it produces a value or an EvalError,
//     and with the engine's guards division by zero yields 0;
//   - Identifiers never panics and only reports names that lex as
//     identifiers.
func FuzzParseExpr(f *testing.F) {
	for _, s := range compileSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		canon := e.String()
		re, err := Compile(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not recompile: %v", canon, src, err)
		}
		if again := re.String(); again != canon {
			t.Fatalf("rendering not a fixpoint: %q -> %q -> %q", src, canon, again)
		}
		env := MapEnv{}
		for _, id := range e.Identifiers() {
			if id == "" {
				t.Fatalf("empty identifier from %q", src)
			}
			env[id] = 1
		}
		v, err := e.Eval(env)
		if err != nil {
			t.Fatalf("Eval with all identifiers bound failed for %q: %v", src, err)
		}
		// Evaluation is total: zero denominators yield 0 and anything
		// non-finite is clamped at the boundary, on every path.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Eval(%q) = %v, want finite", src, v)
		}
		ids := e.Identifiers()
		bound, err := e.Bind(ids)
		if err != nil {
			t.Fatalf("Bind of %q to its own identifiers failed: %v", src, err)
		}
		row := make([]float64, len(ids))
		for i := range row {
			row[i] = 1
		}
		bv := bound.EvalBucket(row, [][]float64{row, row}, make([]float64, bound.Depth()))
		if math.IsNaN(bv) || math.IsInf(bv, 0) {
			t.Fatalf("EvalBucket(%q) = %v, want finite", src, bv)
		}
		// Unbound identifiers surface as EvalError, not a panic.
		if len(e.Identifiers()) > 0 {
			if _, err := e.Eval(MapEnv{}); err == nil {
				t.Fatalf("Eval of %q with empty env must fail", src)
			}
		}
		// The series helpers never panic on arbitrary compiled input.
		_ = e.NodeCount()
		_ = e.NeedsPointwise()
		_ = e.SeriesOnly()
		if k, inner, err := e.SplitTopK(); err == nil && inner != nil {
			if k < 1 {
				t.Fatalf("SplitTopK(%q) k = %d", src, k)
			}
			if _, err := Compile(inner.String()); err != nil {
				t.Fatalf("topk inner %q of %q does not recompile: %v", inner.String(), src, err)
			}
		}
	})
}

package metrics

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// savedCorpus returns the string inputs the fuzzer saved for a target
// under testdata/fuzz.
func savedCorpus(t testing.TB, target string) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(q, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// refEval is the recursive tree walk the compiled program replaced,
// kept as the reference the program is compared against: operators and
// the *_over_time folds are restated here, builtins come from the table.
func refEval(n node, env Env, bucket bool, points []Env) (float64, error) {
	switch n := n.(type) {
	case *numberNode:
		return n.val, nil
	case *identNode:
		v, ok := env.Lookup(n.name)
		if !ok {
			return 0, &EvalError{Expr: n.name, Msg: "undefined identifier " + n.name}
		}
		return v, nil
	case *unaryNode:
		v, err := refEval(n.expr, env, bucket, points)
		return -v, err
	case *binaryNode:
		l, err := refEval(n.l, env, bucket, points)
		if err != nil {
			return 0, err
		}
		r, err := refEval(n.r, env, bucket, points)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case tokPlus:
			return l + r, nil
		case tokMinus:
			return l - r, nil
		case tokStar:
			return l * r, nil
		case tokSlash, tokPercent:
			if r == 0 {
				return 0, nil
			}
			if n.op == tokSlash {
				return l / r, nil
			}
			return math.Mod(l, r), nil
		}
		return boolVal(map[tokenKind]bool{
			tokEQ: l == r, tokNE: l != r, tokLT: l < r, tokGT: l > r, tokLE: l <= r, tokGE: l >= r,
		}[n.op]), nil
	case *condNode:
		c, err := refEval(n.cond, env, bucket, points)
		if err != nil {
			return 0, err
		}
		tv, err := refEval(n.then, env, bucket, points)
		if err != nil {
			return 0, err
		}
		ev, err := refEval(n.els, env, bucket, points)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return tv, nil
		}
		return ev, nil
	case *callNode:
		if n.fn.fold != nil && bucket {
			acc := 0.0
			for i, pe := range points {
				v, err := refEval(n.args[0], pe, true, points[i:i+1])
				if err != nil {
					return 0, err
				}
				switch {
				case n.name == "avg_over_time" || n.name == "sum_over_time":
					acc += v
				case i == 0 || n.name == "min_over_time" && v < acc || n.name == "max_over_time" && v > acc:
					acc = v
				}
			}
			if n.name == "avg_over_time" && len(points) > 0 {
				acc /= float64(len(points))
			}
			return finite(acc), nil
		}
		var a args
		for i, arg := range n.args {
			v, err := refEval(arg, env, bucket, points)
			if err != nil {
				return 0, err
			}
			a[i] = v
		}
		switch {
		case n.fn.fold != nil:
			return a[0], nil
		case n.name == "rate":
			dt, ok := env.Lookup(VarDeltaNS)
			if !ok || dt <= 0 {
				return 0, nil
			}
			return a[0] * 1e9 / dt, nil
		}
		return n.fn.impl(a), nil
	}
	panic("unknown node")
}

// FuzzBoundEvalMatchesEnv guards the Expr.Eval(Env) adapter: resolving
// names through an Env gives what the slot-bound evaluation gives over
// the same values, bit for bit — and an identifier missing from the
// slots is an error at Bind exactly when it is one at Eval, also in a
// conditional branch no evaluation takes. Eval and Bound.EvalBucket in
// turn agree with the reference tree walk, over a two-point bucket and
// over each point as a bucket of its own.
func FuzzBoundEvalMatchesEnv(f *testing.F) {
	srcs := slices.Concat(compileSeeds, savedCorpus(f, "FuzzParseExpr"), []string{
		"rate(A) + DELTA_NS",         // rate's interval and the same name read directly
		"A / (B - B) + A % (B - B)",  // div and mod by a computed zero
		"A * 1e308 * 10 - A * 1e308", // ±Inf and NaN on the way, clamped at the end
		"0 ? UNTAKEN : A",            // the untaken branch still binds
		"clamp(A, B, C) + sqrt(-A) + log2(0) + min(A, B) + max(B, C) + abs(-C)",
		"avg_over_time(A) + max_over_time(rate(B))", // instant folds are the identity
		"A == B ? A != B : A <= B ? A >= B : A < B",
	})
	for _, sc := range BuiltinScreens() {
		for _, col := range sc.Columns {
			srcs = append(srcs, col.Expr.Source())
		}
	}
	for i, src := range srcs {
		f.Add(src, float64(i), 1e9, 2.5e9, 1e9)
		f.Add(src, 0.0, -3.0, math.Inf(1), 0.0)
	}
	f.Fuzz(func(t *testing.T, src string, a, b, c, dt float64) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		ids := e.Identifiers()
		vals := []float64{a, b, c, -a, a * b, 0}
		check := func(names []string) {
			env, slots := MapEnv{}, make([]float64, len(names))
			for i, name := range names {
				slots[i] = vals[i%len(vals)]
				if name == VarDeltaNS {
					slots[i] = dt
				}
				env[name] = slots[i]
			}
			want, wantErr := e.Eval(env)
			if ref, refErr := refEval(e.root, env, false, nil); (refErr != nil) != (wantErr != nil) ||
				refErr == nil && math.Float64bits(finite(ref)) != math.Float64bits(want) {
				t.Fatalf("%q over %v: Eval %v, %v; reference %v, %v", src, env, want, wantErr, ref, refErr)
			}
			bound, err := e.Bind(names)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%q over %v: Bind error %v, Eval error %v", src, names, err, wantErr)
			}
			if err != nil {
				return
			}
			stack := make([]float64, bound.Depth())
			got := bound.Eval(slots, stack)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q over %v = %v: bound %v, Eval %v", src, names, slots, got, want)
			}
			// A bucket of two points: these values and others.
			other, otherSlots := MapEnv{}, make([]float64, len(names))
			for i, name := range names {
				otherSlots[i] = slots[i]*3 + 1
				other[name] = otherSlots[i]
			}
			bv := bound.EvalBucket(slots, [][]float64{slots, otherSlots}, stack)
			if ref, refErr := refEval(e.root, env, true, []Env{env, other}); refErr != nil ||
				math.Float64bits(finite(ref)) != math.Float64bits(bv) {
				t.Fatalf("%q over %v: EvalBucket %v; reference %v, %v", src, env, bv, ref, refErr)
			}
			// Pointwise: each point as a bucket of its own.
			for _, p := range []struct {
				env   MapEnv
				slots []float64
			}{{env, slots}, {other, otherSlots}} {
				one := bound.EvalBucket(p.slots, [][]float64{p.slots}, stack)
				if ref, refErr := refEval(e.root, p.env, true, []Env{p.env}); refErr != nil ||
					math.Float64bits(finite(ref)) != math.Float64bits(one) {
					t.Fatalf("%q over %v: one-point bucket %v; reference %v, %v", src, p.env, one, ref, refErr)
				}
			}
		}
		// As the engine binds: the identifiers, then the context variables.
		all := slices.Clone(ids)
		for _, v := range ContextVars {
			if !slices.Contains(all, v) {
				all = append(all, v)
			}
		}
		check(all)
		// Without the context variables rate() reads a zero interval.
		check(ids)
		// With each identifier missing in turn.
		for i := range ids {
			check(slices.Delete(slices.Clone(ids), i, i+1))
		}
	})
}

// TestBoundEvalAllocatesNothing pins the per-row cost contract: with a
// caller-provided stack a bound column evaluation stays off the heap.
func TestBoundEvalAllocatesNothing(t *testing.T) {
	slotNames := append([]string{"CYCLES", "INSTRUCTIONS", "CACHE_MISSES"}, ContextVars[:]...)
	slots := []float64{2e9, 1e9, 1234, 1e9, 2.66e9, 50, 8, 100}
	for _, src := range []string{
		"ratio(INSTRUCTIONS, CYCLES)",
		"per100(CACHE_MISSES, INSTRUCTIONS) + rate(CYCLES) / FREQ_HZ",
		"CPU_PCT > 10 ? clamp(mega(CYCLES), 0, 1e6) : avg_over_time(SMPL_PCT)",
	} {
		bound, err := MustCompile(src).Bind(slotNames)
		if err != nil {
			t.Fatal(err)
		}
		stack := make([]float64, bound.Depth())
		if n := testing.AllocsPerRun(100, func() { bound.Eval(slots, stack) }); n != 0 {
			t.Errorf("%q: %v allocations per bound eval, want 0", src, n)
		}
	}
	// The name-resolving entry runs the same program on a stack of its own.
	e, env := MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)"), MapEnv{"CACHE_MISSES": 5, "INSTRUCTIONS": 100}
	if n := testing.AllocsPerRun(100, func() { _, _ = e.Eval(env) }); n != 0 {
		t.Errorf("%v allocations per Expr.Eval, want 0", n)
	}
}

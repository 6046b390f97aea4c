package metrics

import (
	"fmt"
	"math"
	"slices"
)

// Env resolves identifiers by name for Expr.Eval's one-shot callers:
// event names map to counter deltas for the refresh interval, context
// variables such as DELTA_NS to theirs. The engines never build one —
// they bind (Expr.Bind) and fill slot vectors.
type Env interface {
	// Lookup returns the value of the named variable and whether it is
	// defined.
	Lookup(name string) (float64, bool)
}

// MapEnv is an Env backed by a plain map, convenient for tests and for
// one-shot evaluations.
type MapEnv map[string]float64

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (float64, bool) {
	v, ok := m[name]
	return v, ok
}

// EvalError describes an evaluation failure (undefined identifier).
type EvalError struct {
	Expr string
	Msg  string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("metrics: %s evaluating %q", e.Msg, e.Expr)
}

// Eval computes the expression in env. Evaluation is total: division
// and modulo by zero yield 0 rather than an error or Inf (a task that
// retired no instructions during an interval simply shows an
// empty/zero ratio in the table, exactly as a freshly attached counter
// pair would in the original tool), and any non-finite result that
// still arises (overflow to ±Inf, NaN from Inf-Inf) is clamped to 0 at
// the evaluation boundary. The same rule holds on every path — live
// screen cells, store-backed range queries and fleet merges — so an
// expression renders identically wherever it runs and OpenMetrics
// output never carries NaN.
//
// Eval is an adapter for one-shot callers: it resolves the expression's
// identifiers through env into a scratch slot vector and evaluates the
// expression bound to its own names. An identifier env lacks is an
// *EvalError — also in a conditional branch no evaluation would take —
// unless only a builtin's context argument reads it (rate's DELTA_NS),
// which then reads 0.
func (e *Expr) Eval(env Env) (float64, error) {
	var buf [32]float64
	scratch := buf[:]
	if need := e.depth + len(e.names); need > len(scratch) {
		scratch = make([]float64, need)
	}
	slots := scratch[e.depth : e.depth+len(e.names)]
	for i, name := range e.names {
		v, ok := env.Lookup(name)
		if !ok {
			if e.required[i] {
				return 0, &EvalError{Expr: name, Msg: "undefined identifier " + name}
			}
			v = 0
		}
		slots[i] = v
	}
	return finite(run(e.prog, slots, nil, scratch[:e.depth])), nil
}

// Bound is an expression whose identifiers were resolved once to
// positions of a slot vector — the only way a program reads them: the
// sampling engine binds every screen column when a session starts and
// evaluates it per row, the query engine binds its expression to the
// row layout it folds records into.
type Bound struct {
	prog  []instr
	depth int
}

// Bind resolves the expression's identifiers against slots, the names
// of a slot vector in order. An identifier that is not among them is an
// error here, wherever it appears — also in a conditional branch no
// evaluation would take.
func (e *Expr) Bind(slots []string) (*Bound, error) {
	prog := slices.Clone(e.prog)
	for i := range prog {
		in := &prog[i]
		if in.op != opIdent && in.op != opIdentOpt {
			continue
		}
		name := e.names[in.n]
		switch slot := slices.Index(slots, name); {
		case slot >= 0:
			in.op, in.n = opIdent, slot
		case in.op == opIdentOpt:
			*in = instr{op: opConst}
		default:
			return nil, &EvalError{Expr: name, Msg: "undefined identifier " + name}
		}
	}
	return &Bound{prog: prog, depth: e.depth}, nil
}

// Depth is the length of the scratch stack Eval needs.
func (b *Bound) Depth() int { return b.depth }

// Eval computes the expression over slots, ordered as the names given
// to Bind, with stack (at least Depth long) as scratch: total like
// Expr.Eval, and allocation-free.
func (b *Bound) Eval(slots, stack []float64) float64 {
	return finite(run(b.prog, slots, nil, stack))
}

// EvalBucket evaluates the expression over one query bucket: sum is the
// bucket-level slot row (counter identifiers summed over the bucket,
// column values averaged, DELTA_NS set to the bucket width in
// nanoseconds) and points are the per-point rows, in the same layout,
// that the *_over_time functions fold over — unread, and so free to be
// nil, unless NeedsPointwise. The total-evaluation rule of Eval
// applies: the result is always finite.
func (b *Bound) EvalBucket(sum []float64, points [][]float64, stack []float64) float64 {
	if points == nil {
		points = [][]float64{} // an empty bucket, not an instant
	}
	return finite(run(b.prog, sum, points, stack))
}

// finite implements the total-evaluation rule: non-finite values
// become 0 at the evaluation boundary.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// An expression compiles to a postfix program over a value stack: the
// one place operator and builtin semantics live. Identifier n reads
// slot n — of Expr.names as compiled, of the caller's vector once bound.
type opcode uint8

const (
	opConst    opcode = iota // push val
	opIdent                  // push identifier n; unresolvable is an error
	opIdentOpt               // push identifier n; unresolvable reads 0
	opNeg                    // negate the top
	opBinary                 // apply tok to the two topmost values
	opSelect                 // cond, then, else → then if cond != 0, else else
	opCall                   // apply fn to the n topmost values
	opFold                   // fold the next n instructions over the bucket's points with fn
)

type instr struct {
	op  opcode
	tok tokenKind
	n   int
	val float64
	fn  *builtin
}

// run executes prog, its identifiers reading slots by index. points are
// the rows an *_over_time call folds over; nil evaluates an instant,
// where the interval is the single point and the fold its identity.
// Both branches of a conditional are computed before one is selected:
// evaluation is total and side-effect-free.
func run(prog []instr, slots []float64, points [][]float64, stack []float64) float64 {
	sp := 0
	for pc := 0; pc < len(prog); pc++ {
		in := &prog[pc]
		switch in.op {
		case opConst:
			stack[sp] = in.val
			sp++
		case opIdent, opIdentOpt:
			stack[sp] = slots[in.n]
			sp++
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opBinary:
			sp--
			stack[sp-1] = applyBinary(in.tok, stack[sp-1], stack[sp])
		case opSelect:
			sp -= 2
			if stack[sp-1] != 0 {
				stack[sp-1] = stack[sp]
			} else {
				stack[sp-1] = stack[sp+1]
			}
		case opCall:
			sp -= in.n - 1
			var a args
			switch in.n {
			case 3:
				a[2] = stack[sp+1]
				fallthrough
			case 2:
				a[1] = stack[sp]
				fallthrough
			case 1:
				a[0] = stack[sp-1]
			}
			stack[sp-1] = in.fn.impl(a)
		case opFold:
			stack[sp] = fold(in.fn, prog[pc+1:pc+1+in.n], slots, points, stack[sp:])
			pc += in.n
			sp++
		}
	}
	return stack[0]
}

// fold evaluates an *_over_time call whose argument is sub over points.
func fold(fn *builtin, sub []instr, slots []float64, points [][]float64, stack []float64) float64 {
	if points == nil {
		return run(sub, slots, nil, stack)
	}
	acc := 0.0
	for i, p := range points {
		// A nested *_over_time folds over just this point.
		acc = fn.fold(acc, run(sub, p, points[i:i+1], stack), i)
	}
	if fn.mean && len(points) > 0 {
		acc /= float64(len(points))
	}
	return finite(acc)
}

func applyBinary(op tokenKind, l, r float64) float64 {
	switch op {
	case tokPlus:
		return l + r
	case tokMinus:
		return l - r
	case tokStar:
		return l * r
	case tokSlash:
		if r == 0 {
			return 0
		}
		return l / r
	case tokPercent:
		if r == 0 {
			return 0
		}
		return math.Mod(l, r)
	case tokEQ:
		return boolVal(l == r)
	case tokNE:
		return boolVal(l != r)
	case tokLT:
		return boolVal(l < r)
	case tokGT:
		return boolVal(l > r)
	case tokLE:
		return boolVal(l <= r)
	case tokGE:
		return boolVal(l >= r)
	}
	panic("metrics: unknown operator in a compiled expression")
}

// compiler flattens a parsed expression into its program, naming each
// identifier once and tracking the deepest the value stack gets.
type compiler struct {
	prog      []instr
	names     []string
	sp, depth int
}

func (c *compiler) emit(in instr, grow int) {
	c.prog = append(c.prog, in)
	c.sp += grow
	c.depth = max(c.depth, c.sp)
}

func (c *compiler) ident(op opcode, name string) {
	i := slices.Index(c.names, name)
	if i < 0 {
		i = len(c.names)
		c.names = append(c.names, name)
	}
	c.emit(instr{op: op, n: i}, 1)
}

func (c *compiler) node(n node) {
	switch n := n.(type) {
	case *numberNode:
		c.emit(instr{op: opConst, val: n.val}, 1)
	case *identNode:
		c.ident(opIdent, n.name)
	case *unaryNode:
		c.node(n.expr)
		c.emit(instr{op: opNeg}, 0)
	case *binaryNode:
		c.node(n.l)
		c.node(n.r)
		c.emit(instr{op: opBinary, tok: n.op}, -1)
	case *condNode:
		c.node(n.cond)
		c.node(n.then)
		c.node(n.els)
		c.emit(instr{op: opSelect}, -2)
	case *callNode:
		if n.fn.fold != nil {
			// The argument runs once per point on the stack above the
			// fold, leaving the one folded value: no growth of its own.
			at := len(c.prog)
			c.emit(instr{op: opFold, fn: n.fn}, 0)
			c.node(n.args[0])
			c.prog[at].n = len(c.prog) - at - 1
			return
		}
		for _, a := range n.args {
			c.node(a)
		}
		argc := len(n.args)
		if n.fn.ctxVar != "" {
			c.ident(opIdentOpt, n.fn.ctxVar)
			argc++
		}
		c.emit(instr{op: opCall, fn: n.fn, n: argc}, 1-argc)
	}
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// builtin is a function callable from expressions, pure in its
// arguments. ctxVar names a context variable passed as one more,
// trailing argument (0 when no slot carries it). fold gives the
// *_over_time family its series-level meaning: over a bucket the
// argument is evaluated at every point and folded (n counts the points
// so far; mean divides by their number), while in an instant context —
// a live screen cell — the fold of the one point is the point itself.
type builtin struct {
	arity  int
	impl   func(args) float64
	ctxVar string
	fold   func(acc, v float64, n int) float64
	mean   bool
	doc    string
}

// args carries a call's arguments by value (no builtin takes more), so
// that calling through the table leaves the evaluator's stack on the
// goroutine stack.
type args [3]float64

func foldSum(acc, v float64, n int) float64 { return acc + v }

// builtins is the function table. All functions are total: they return 0
// instead of NaN/Inf on degenerate inputs, keeping table cells printable.
var builtins = map[string]*builtin{
	"ratio": {arity: 2, impl: func(a args) float64 {
		if a[1] == 0 {
			return 0
		}
		return a[0] / a[1]
	}, doc: "ratio(a,b) = a/b, 0 when b==0"},
	"per100": {arity: 2, impl: func(a args) float64 {
		if a[1] == 0 {
			return 0
		}
		return 100 * a[0] / a[1]
	}, doc: "per100(a,b) = occurrences of a per hundred b (e.g. misses per 100 instructions)"},
	"per1000": {arity: 2, impl: func(a args) float64 {
		if a[1] == 0 {
			return 0
		}
		return 1000 * a[0] / a[1]
	}, doc: "per1000(a,b) = occurrences of a per thousand b"},
	"min": {arity: 2, impl: func(a args) float64 { return math.Min(a[0], a[1]) },
		doc: "min(a,b)"},
	"max": {arity: 2, impl: func(a args) float64 { return math.Max(a[0], a[1]) },
		doc: "max(a,b)"},
	"abs": {arity: 1, impl: func(a args) float64 { return math.Abs(a[0]) },
		doc: "abs(a)"},
	"sqrt": {arity: 1, impl: func(a args) float64 {
		if a[0] < 0 {
			return 0
		}
		return math.Sqrt(a[0])
	}, doc: "sqrt(a), 0 for negative input"},
	"log2": {arity: 1, impl: func(a args) float64 {
		if a[0] <= 0 {
			return 0
		}
		return math.Log2(a[0])
	}, doc: "log2(a), 0 for non-positive input"},
	"clamp": {arity: 3, impl: func(a args) float64 {
		v := a[0]
		if v < a[1] {
			v = a[1]
		}
		if v > a[2] {
			v = a[2]
		}
		return v
	}, doc: "clamp(x,lo,hi)"},
	"mega": {arity: 1, impl: func(a args) float64 { return a[0] / 1e6 },
		doc: "mega(a) = a/1e6 (counts in millions, as the Mcycle/Minst columns)"},
	"giga": {arity: 1, impl: func(a args) float64 { return a[0] / 1e9 },
		doc: "giga(a) = a/1e9"},

	// Series-oriented functions shared with the query engine. Their
	// instant forms are chosen so a live screen cell and a one-point
	// query bucket agree exactly.
	"delta": {arity: 1, impl: func(a args) float64 { return a[0] },
		doc: "delta(e) = change of counter e over the interval (identifiers already are interval deltas, so this is the identity — kept for .tiptoprc compatibility)"},
	"rate": {arity: 1, ctxVar: VarDeltaNS, impl: func(a args) float64 {
		if a[1] <= 0 {
			return 0
		}
		return a[0] * 1e9 / a[1]
	}, doc: "rate(e) = delta(e) per second of wall clock (delta * 1e9 / DELTA_NS), 0 when the interval is unknown"},
	"avg_over_time": {arity: 1, fold: foldSum, mean: true,
		doc: "avg_over_time(e) = mean of e over the points inside the query bucket"},
	"min_over_time": {arity: 1, fold: func(acc, v float64, n int) float64 {
		if n == 0 || v < acc {
			return v
		}
		return acc
	}, doc: "min_over_time(e) = minimum of e over the points inside the query bucket"},
	"max_over_time": {arity: 1, fold: func(acc, v float64, n int) float64 {
		if n == 0 || v > acc {
			return v
		}
		return acc
	}, doc: "max_over_time(e) = maximum of e over the points inside the query bucket"},
	"sum_over_time": {arity: 1, fold: foldSum,
		doc: "sum_over_time(e) = sum of e over the points inside the query bucket"},
	"topk": {arity: 2, impl: func(a args) float64 { return a[1] },
		doc: "topk(k, e) = the k series with the highest mean e (query engine only; must be the outermost construct)"},
}

// Builtins returns the names and one-line docs of all expression
// functions, for --help output.
func Builtins() map[string]string {
	out := make(map[string]string, len(builtins))
	for name, b := range builtins {
		out[name] = b.doc
	}
	return out
}

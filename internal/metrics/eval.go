package metrics

// Evaluation. An expression compiles to a postfix program, and the
// program runs a column at a time: over a batch of rows held in a
// row-major slot matrix an identifier gathers one slot column, a
// constant broadcasts, and each operator and builtin is one loop over
// the lanes (binary, apply), a chunk of maxLanes rows at a time on a
// caller-owned Scratch. Bound.EvalRows is that kernel; Bound.Eval,
// Bound.EvalBucket and Expr.Eval are batches of one, the bucket's
// *_over_time folds running their argument point by point. Per lane
// the operations and their order are those of one row alone, and
// finite applies at the end, so a lane's result does not depend on the
// batch it ran in.

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
// expression bound to its own names, a batch of one. An identifier env
// lacks is an *EvalError — also in a conditional branch no evaluation
// would take — unless only a builtin's context argument reads it
// (rate's DELTA_NS), which then reads 0.
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
	return one(e.prog, slots, nil, scratch[:e.depth]), nil
}

// Bound is an expression whose identifiers were resolved once to
// positions of a slot vector — the only way a program reads them: the
// sampling engine binds every screen column when a session starts and
// evaluates it over the refresh's rows, the query engine binds its
// expression to the row layout it folds records into.
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
// to Bind, with stack (at least Depth long) as scratch: a batch of one,
// total like Expr.Eval, and allocation-free.
func (b *Bound) Eval(slots, stack []float64) float64 {
	return one(b.prog, slots, nil, stack)
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
	return one(b.prog, sum, points, stack)
}

// maxLanes is the most rows EvalRows evaluates at once: its stack holds
// that many lanes per slot.
const maxLanes = 256

// Scratch is the working memory of EvalRows — a value stack up to maxLanes
// wide — owned by the caller and reused across calls. The zero value is
// ready; it grows to the deepest program and widest batch it serves.
type Scratch struct{ stack []float64 }

// EvalRows evaluates the expression as an instant over n = len(out)
// rows at once, row i being rows[i*stride:] in the layout given to Bind,
// into out[i]: per row exactly what Eval computes, bit for bit, a
// column at a time. After sc has grown it allocates nothing.
func (b *Bound) EvalRows(out, rows []float64, stride int, sc *Scratch) {
	w := min(maxLanes, len(out)) // lanes per chunk: a small batch needs a small stack
	if need := b.depth * w; len(sc.stack) < need {
		sc.stack = make([]float64, need)
	}
	for lo := 0; lo < len(out); lo += w {
		dst := out[lo:min(lo+w, len(out))]
		run(b.prog, rows[lo*stride:], stride, nil, sc.stack, w, len(dst))
		for l, v := range sc.stack[:len(dst)] {
			dst[l] = finite(v)
		}
	}
}

// one runs prog as a batch of one over slots: its stack is one lane wide.
func one(prog []instr, slots []float64, points [][]float64, stack []float64) float64 {
	run(prog, slots, 0, points, stack, 1, 1)
	return finite(stack[0])
}

// finite implements the total-evaluation rule: non-finite values
// become 0 at the evaluation boundary.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// A program is postfix over a stack of value columns: the one place
// operator and builtin semantics live. Identifier n reads slot n — of
// Expr.names as compiled, of the caller's rows once bound.
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

// run executes prog over m lanes: lane l's identifiers read
// rows[l*stride:], and stack slot k of lane l is stack[k*w+l]. The
// result is left in stack[:m], not yet made finite. points are the rows
// an *_over_time call folds over, in a batch of one; nil evaluates an
// instant, where the interval is the single point and the fold its
// identity: the argument's instructions run in line. Both branches of a
// conditional are computed before one is selected: evaluation is total
// and side-effect-free.
func run(prog []instr, rows []float64, stride int, points [][]float64, stack []float64, w, m int) {
	sp := 0
	col := func(k int) []float64 { return stack[k*w : k*w+m] }
	for pc := 0; pc < len(prog); pc++ {
		in := &prog[pc]
		switch in.op {
		case opConst:
			d := col(sp)
			for l := range d {
				d[l] = in.val
			}
			sp++
		case opIdent, opIdentOpt:
			d := col(sp)
			for l, s := 0, in.n; l < len(d); l, s = l+1, s+stride {
				d[l] = rows[s]
			}
			sp++
		case opNeg:
			d := col(sp - 1)
			for l := range d {
				d[l] = -d[l]
			}
		case opBinary:
			sp--
			binary(in.tok, col(sp-1), col(sp))
		case opSelect:
			sp -= 2
			c, t, e := col(sp-1), col(sp), col(sp+1)
			for l := range c {
				if c[l] != 0 {
					c[l] = t[l]
				} else {
					c[l] = e[l]
				}
			}
		case opCall:
			sp -= in.n - 1
			var a args
			for k := range in.n {
				a[k] = col(sp - 1 + k)
			}
			apply(in.fn.kernel, a)
		case opFold:
			if points == nil {
				continue
			}
			stack[sp] = fold(in.fn, prog[pc+1:pc+1+in.n], points, stack[sp:])
			pc += in.n
			sp++
		}
	}
}

// fold evaluates an *_over_time call whose argument is sub over points,
// each point a batch of one.
func fold(fn *builtin, sub []instr, points [][]float64, stack []float64) float64 {
	acc := 0.0
	for i, p := range points {
		// A nested *_over_time folds over just this point.
		run(sub, p, 0, points[i:i+1], stack, 1, 1)
		acc = fn.fold(acc, stack[0], i)
	}
	if fn.mean && len(points) > 0 {
		acc /= float64(len(points))
	}
	return finite(acc)
}

// binary applies op lane by lane, the result over l.
func binary(op tokenKind, l, r []float64) {
	r = r[:len(l)]
	switch op {
	case tokPlus:
		for i := range l {
			l[i] += r[i]
		}
	case tokMinus:
		for i := range l {
			l[i] -= r[i]
		}
	case tokStar:
		for i := range l {
			l[i] *= r[i]
		}
	case tokSlash:
		for i, y := range r {
			if y == 0 {
				l[i] = 0
			} else {
				l[i] /= y
			}
		}
	case tokPercent:
		for i, y := range r {
			if y == 0 {
				l[i] = 0
			} else {
				l[i] = math.Mod(l[i], y)
			}
		}
	default: // the comparisons, no screen's hot path: one loop for all
		for i := range l {
			l[i] = boolVal(compare(op, l[i], r[i]))
		}
	}
}

func compare(op tokenKind, l, r float64) bool {
	switch op {
	case tokEQ:
		return l == r
	case tokNE:
		return l != r
	case tokLT:
		return l < r
	case tokGT:
		return l > r
	case tokLE:
		return l <= r
	case tokGE:
		return l >= r
	default:
		panic("metrics: unknown operator in a compiled expression")
	}
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
// arguments: kernel names its column form in apply. ctxVar names a
// context variable passed as one more, trailing argument (0 when no
// slot carries it). fold gives the *_over_time family its series-level
// meaning: over a bucket the argument is evaluated at every point and
// folded (n counts the points so far; mean divides by their number),
// while in an instant context — a live screen cell — the fold of the
// one point is the point itself.
type builtin struct {
	arity  int
	kernel kernel
	ctxVar string
	fold   func(acc, v float64, n int) float64
	mean   bool
	doc    string
}

// kernel names a builtin's case in apply.
type kernel uint8

const (
	fnFold kernel = iota // an *_over_time function: folded, never applied
	fnRatio
	fnPer100
	fnPer1000
	fnMin
	fnMax
	fnAbs
	fnSqrt
	fnLog2
	fnClamp
	fnMega
	fnGiga
	fnDelta
	fnRate
	fnTopK
)

// args are a call's argument columns, lane for lane (no builtin takes
// more than three).
type args [3][]float64

// apply computes builtin k over the argument columns a, lane by lane,
// writing the result over a[0]: the one definition of every builtin.
// All of them are total: they yield 0 instead of NaN/Inf on degenerate
// inputs, keeping table cells printable.
func apply(k kernel, a args) {
	x, y, z := a[0], a[1], a[2]
	switch k {
	case fnRatio, fnPer100, fnPer1000:
		per, y := perUnit[k], y[:len(x)] // 1·a exactly a: ratio's a/b
		for i := range x {
			if y[i] == 0 {
				x[i] = 0
			} else {
				x[i] = per * x[i] / y[i]
			}
		}
	case fnMin:
		y = y[:len(x)]
		for i := range x {
			x[i] = math.Min(x[i], y[i])
		}
	case fnMax:
		y = y[:len(x)]
		for i := range x {
			x[i] = math.Max(x[i], y[i])
		}
	case fnAbs:
		for i, v := range x {
			x[i] = math.Abs(v)
		}
	case fnSqrt:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			} else {
				x[i] = math.Sqrt(v)
			}
		}
	case fnLog2:
		for i, v := range x {
			if v <= 0 {
				x[i] = 0
			} else {
				x[i] = math.Log2(v)
			}
		}
	case fnClamp:
		y, z = y[:len(x)], z[:len(x)]
		for i, v := range x {
			if v < y[i] {
				v = y[i]
			}
			if v > z[i] {
				v = z[i]
			}
			x[i] = v
		}
	case fnMega, fnGiga:
		per := perUnit[k]
		for i := range x {
			x[i] /= per
		}
	case fnDelta:
	case fnRate:
		y = y[:len(x)]
		for i := range x {
			if y[i] <= 0 {
				x[i] = 0
			} else {
				x[i] = x[i] * 1e9 / y[i]
			}
		}
	case fnTopK:
		copy(x, y)
	default:
		panic("metrics: applying a builtin with no instant form")
	}
}

// perUnit is the unit ratio, per100, per1000, mega and giga scale by.
var perUnit = [...]float64{fnRatio: 1, fnPer100: 100, fnPer1000: 1000, fnMega: 1e6, fnGiga: 1e9}

func foldSum(acc, v float64, n int) float64 { return acc + v }

// builtins is the function table.
var builtins = map[string]*builtin{
	"ratio":   {arity: 2, kernel: fnRatio, doc: "ratio(a,b) = a/b, 0 when b==0"},
	"per100":  {arity: 2, kernel: fnPer100, doc: "per100(a,b) = occurrences of a per hundred b (e.g. misses per 100 instructions)"},
	"per1000": {arity: 2, kernel: fnPer1000, doc: "per1000(a,b) = occurrences of a per thousand b"},
	"min":     {arity: 2, kernel: fnMin, doc: "min(a,b)"},
	"max":     {arity: 2, kernel: fnMax, doc: "max(a,b)"},
	"abs":     {arity: 1, kernel: fnAbs, doc: "abs(a)"},
	"sqrt":    {arity: 1, kernel: fnSqrt, doc: "sqrt(a), 0 for negative input"},
	"log2":    {arity: 1, kernel: fnLog2, doc: "log2(a), 0 for non-positive input"},
	"clamp":   {arity: 3, kernel: fnClamp, doc: "clamp(x,lo,hi)"},
	"mega":    {arity: 1, kernel: fnMega, doc: "mega(a) = a/1e6 (counts in millions, as the Mcycle/Minst columns)"},
	"giga":    {arity: 1, kernel: fnGiga, doc: "giga(a) = a/1e9"},

	// Series-oriented functions shared with the query engine. Their
	// instant forms are chosen so a live screen cell and a one-point
	// query bucket agree exactly.
	"delta": {arity: 1, kernel: fnDelta,
		doc: "delta(e) = change of counter e over the interval (identifiers already are interval deltas, so this is the identity — kept for .tiptoprc compatibility)"},
	"rate": {arity: 1, kernel: fnRate, ctxVar: VarDeltaNS,
		doc: "rate(e) = delta(e) per second of wall clock (delta * 1e9 / DELTA_NS), 0 when the interval is unknown"},
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
	"topk": {arity: 2, kernel: fnTopK,
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

package metrics

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// node is an AST node of a parsed expression.
type node interface {
	// walk invokes f on this node and all descendants.
	walk(f func(node))
	// render reconstructs a canonical source form.
	render(b *strings.Builder)
}

type numberNode struct{ val float64 }

type identNode struct{ name string }

type unaryNode struct {
	op   tokenKind // tokMinus
	expr node
}

type binaryNode struct {
	op   tokenKind
	l, r node
}

type condNode struct {
	cond, then, els node
}

type callNode struct {
	name string
	fn   *builtin
	args []node
	pos  int // byte offset of the call in the source, for semantic errors
}

// Expr is a compiled, immutable metric expression.
type Expr struct {
	src  string
	root node
	// groupBy is the optional `by user|command|agent` grouping clause:
	// a series-level roll-up key that only the query engine acts on.
	groupBy string
	// prog is root flattened for evaluation: names are the identifiers
	// it reads (required where some read is not a builtin's optional
	// context argument), depth the value stack it needs.
	prog     []instr
	names    []string
	required []bool
	depth    int
}

func newExpr(src string, root node, groupBy string) *Expr {
	var c compiler
	c.node(root)
	required := make([]bool, len(c.names))
	for _, in := range c.prog {
		if in.op == opIdent {
			required[in.n] = true
		}
	}
	return &Expr{src: src, root: root, groupBy: groupBy, prog: c.prog, names: c.names, required: required, depth: c.depth}
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// String returns a canonical rendering of the parsed expression.
func (e *Expr) String() string {
	var b strings.Builder
	e.root.render(&b)
	if e.groupBy != "" {
		b.WriteString(" by ")
		b.WriteString(e.groupBy)
	}
	return b.String()
}

// GroupBy returns the grouping key of a `... by user|command|agent`
// expression, or "" for ungrouped expressions.
func (e *Expr) GroupBy() string { return e.groupBy }

// Identifiers returns the distinct identifiers referenced by the
// expression, in first-appearance order. The sampling engine uses this to
// decide which counters must be attached for a screen's columns.
func (e *Expr) Identifiers() []string {
	seen := make(map[string]bool)
	var out []string
	e.root.walk(func(n node) {
		if id, ok := n.(*identNode); ok && !seen[id.name] {
			seen[id.name] = true
			out = append(out, id.name)
		}
	})
	return out
}

// Reads returns every identifier the expression's program reads: its
// identifiers and the context variables builtins read implicitly
// (rate's DELTA_NS) — the names a slot vector must carry for Bind to
// leave no read of them a constant 0.
func (e *Expr) Reads() []string { return slices.Clone(e.names) }

// GroupKeys are the identifiers allowed after the `by` keyword: the
// roll-up dimensions the query engine can group series on.
var GroupKeys = []string{"agent", "command", "user"}

func validGroupKey(k string) bool {
	for _, g := range GroupKeys {
		if g == k {
			return true
		}
	}
	return false
}

// Compile parses src into an executable expression. The grammar is the
// screen-column expression language plus an optional trailing grouping
// clause (`expr by user`), which only the series-oriented query engine
// acts on — column compilation rejects grouped expressions via
// SeriesOnly.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	root, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	groupBy := ""
	if t := p.peek(); t.kind == tokIdent && t.text == "by" {
		p.advance()
		key := p.peek()
		if key.kind != tokIdent || !validGroupKey(key.text) {
			return nil, p.errf(key.pos, "expected grouping key after 'by' (one of %s), got %s",
				strings.Join(GroupKeys, ", "), key.kind)
		}
		p.advance()
		groupBy = key.text
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf(p.peek().pos, "unexpected %s after expression", p.peek().kind)
	}
	if height(root) > maxExprDepth {
		return nil, p.errf(0, "expression nests deeper than %d levels", maxExprDepth)
	}
	return newExpr(src, root, groupBy), nil
}

// MustCompile is Compile that panics on error, for statically known
// expressions (the built-in screens).
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// maxExprDepth bounds expression nesting: the height of the parsed
// tree, which a long operator chain reaches without any parser
// recursion ("A+A+…" leans left one level per term). maxParseDepth
// bounds the recursion itself — on parenthesised groups, unary
// operators and call arguments — so adversarial input ("((((…" from a
// config file or fuzzer) returns an error instead of exhausting the
// goroutine stack. The canonical rendering parenthesises every node and
// re-parses at most three frames per level, hence the factor: whatever
// Compile accepts, Compile(e.String()) accepts too.
const (
	maxExprDepth  = 200
	maxParseDepth = 3 * maxExprDepth
)

// height is the number of nodes on the longest path from n to a leaf.
func height(n node) int {
	h := 0
	switch n := n.(type) {
	case *unaryNode:
		h = height(n.expr)
	case *binaryNode:
		h = max(height(n.l), height(n.r))
	case *condNode:
		h = max(height(n.cond), height(n.then), height(n.els))
	case *callNode:
		for _, a := range n.args {
			h = max(h, height(a))
		}
	}
	return h + 1
}

// parser is a Pratt (precedence-climbing) parser over the token stream.
type parser struct {
	src   string
	toks  []token
	pos   int
	depth int
}

// enter tracks recursion depth; every call must be paired with leave.
func (p *parser) enter(pos int) error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errf(pos, "expression nests deeper than %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: p.src}
}

// Binding powers. Higher binds tighter. The conditional operator is
// right-associative with the lowest power; comparison operators are
// non-chaining in practice but parse left-associatively.
func infixPower(k tokenKind) (int, bool) {
	switch k {
	case tokQuestion:
		return 1, true
	case tokEQ, tokNE, tokLT, tokGT, tokLE, tokGE:
		return 2, true
	case tokPlus, tokMinus:
		return 3, true
	case tokStar, tokSlash, tokPercent:
		return 4, true
	}
	return 0, false
}

func (p *parser) parseExpr(minPower int) (node, error) {
	if err := p.enter(p.peek().pos); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		power, ok := infixPower(op.kind)
		if !ok || power < minPower {
			return left, nil
		}
		p.advance()
		if op.kind == tokQuestion {
			then, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if p.peek().kind != tokColon {
				return nil, p.errf(p.peek().pos, "expected ':' in conditional, got %s", p.peek().kind)
			}
			p.advance()
			els, err := p.parseExpr(power) // right associative
			if err != nil {
				return nil, err
			}
			left = &condNode{cond: left, then: then, els: els}
			continue
		}
		right, err := p.parseExpr(power + 1)
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: op.kind, l: left, r: right}
	}
}

func (p *parser) parseUnary() (node, error) {
	if err := p.enter(p.peek().pos); err != nil {
		return nil, err
	}
	defer p.leave()
	switch t := p.peek(); t.kind {
	case tokMinus:
		p.advance()
		expr, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{op: tokMinus, expr: expr}, nil
	case tokPlus:
		p.advance()
		return p.parseUnary()
	default:
		return p.parsePrimary()
	}
}

func (p *parser) parsePrimary() (node, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t.pos, "bad number %q: %v", t.text, err)
		}
		return &numberNode{val: v}, nil
	case tokIdent:
		p.advance()
		if p.peek().kind == tokLParen {
			return p.parseCall(t)
		}
		return &identNode{name: t.text}, nil
	case tokLParen:
		p.advance()
		inner, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf(p.peek().pos, "expected ')', got %s", p.peek().kind)
		}
		p.advance()
		return inner, nil
	default:
		return nil, p.errf(t.pos, "expected operand, got %s", t.kind)
	}
}

func (p *parser) parseCall(name token) (node, error) {
	fn, ok := builtins[name.text]
	if !ok {
		return nil, p.errf(name.pos, "unknown function %q", name.text)
	}
	p.advance() // consume '('
	var args []node
	if p.peek().kind != tokRParen {
		for {
			arg, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			if p.peek().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if p.peek().kind != tokRParen {
		return nil, p.errf(p.peek().pos, "expected ')' closing call to %s, got %s", name.text, p.peek().kind)
	}
	p.advance()
	if len(args) != fn.arity {
		return nil, p.errf(name.pos, "%s expects %d argument(s), got %d", name.text, fn.arity, len(args))
	}
	return &callNode{name: name.text, fn: fn, args: args, pos: name.pos}, nil
}

// --- rendering ---

func (n *numberNode) render(b *strings.Builder) {
	b.WriteString(strconv.FormatFloat(n.val, 'g', -1, 64))
}
func (n *identNode) render(b *strings.Builder) { b.WriteString(n.name) }
func (n *unaryNode) render(b *strings.Builder) {
	b.WriteString("(-")
	n.expr.render(b)
	b.WriteByte(')')
}
func (n *binaryNode) render(b *strings.Builder) {
	b.WriteByte('(')
	n.l.render(b)
	switch n.op {
	case tokPlus:
		b.WriteString(" + ")
	case tokMinus:
		b.WriteString(" - ")
	case tokStar:
		b.WriteString(" * ")
	case tokSlash:
		b.WriteString(" / ")
	case tokPercent:
		b.WriteString(" % ")
	case tokEQ:
		b.WriteString(" == ")
	case tokNE:
		b.WriteString(" != ")
	case tokLT:
		b.WriteString(" < ")
	case tokGT:
		b.WriteString(" > ")
	case tokLE:
		b.WriteString(" <= ")
	case tokGE:
		b.WriteString(" >= ")
	}
	n.r.render(b)
	b.WriteByte(')')
}
func (n *condNode) render(b *strings.Builder) {
	b.WriteByte('(')
	n.cond.render(b)
	b.WriteString(" ? ")
	n.then.render(b)
	b.WriteString(" : ")
	n.els.render(b)
	b.WriteByte(')')
}
func (n *callNode) render(b *strings.Builder) {
	b.WriteString(n.name)
	b.WriteByte('(')
	for i, a := range n.args {
		if i > 0 {
			b.WriteString(", ")
		}
		a.render(b)
	}
	b.WriteByte(')')
}

// --- walking ---

func (n *numberNode) walk(f func(node)) { f(n) }
func (n *identNode) walk(f func(node))  { f(n) }
func (n *unaryNode) walk(f func(node))  { f(n); n.expr.walk(f) }
func (n *binaryNode) walk(f func(node)) { f(n); n.l.walk(f); n.r.walk(f) }
func (n *condNode) walk(f func(node))   { f(n); n.cond.walk(f); n.then.walk(f); n.els.walk(f) }
func (n *callNode) walk(f func(node)) {
	f(n)
	for _, a := range n.args {
		a.walk(f)
	}
}

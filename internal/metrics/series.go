package metrics

// Series-oriented evaluation: the query engine's half of the
// expression language. A screen cell evaluates an expression once
// against a single refresh interval; a range query evaluates the same
// expression per bucket, where counter identifiers carry bucket sums,
// column identifiers carry bucket averages, and the *_over_time
// functions fold their argument over the individual points inside the
// bucket. The helpers here let the engine (internal/query) interrogate
// and drive compiled expressions without re-parsing.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// NodeCount returns the number of AST nodes in the expression — the
// complexity measure the query endpoint caps as a DoS guard alongside
// source length (an adversarial expression can pack many nodes into
// few bytes: "a(b(c(...)))").
func (e *Expr) NodeCount() int {
	n := 0
	e.root.walk(func(node) { n++ })
	return n
}

// HasCall reports whether the expression calls the named builtin
// anywhere in its tree.
func (e *Expr) HasCall(name string) bool {
	fn := builtins[name]
	return fn != nil && slices.ContainsFunc(e.prog, func(in instr) bool { return in.fn == fn })
}

// NeedsPointwise reports whether evaluating the expression over a
// bucket requires the individual points inside the bucket (any
// *_over_time call), or only the bucket's sum row.
func (e *Expr) NeedsPointwise() bool {
	return slices.ContainsFunc(e.prog, func(in instr) bool { return in.op == opFold })
}

// SeriesOnly reports why the expression only makes sense to the
// series-oriented query engine — a `by` grouping clause or a topk()
// ranking — or "" when it is also valid as a screen column cell.
func (e *Expr) SeriesOnly() string {
	if e.groupBy != "" {
		return "'by " + e.groupBy + "' grouping"
	}
	if e.HasCall("topk") {
		return "topk() ranking"
	}
	return ""
}

// SplitTopK splits a top-level topk(k, inner) expression into its
// rank count and inner expression (which keeps any `by` clause). It
// returns (0, nil, nil) when the root is not a topk call, and an error
// when it is but k is not a positive integer literal, or when topk
// appears nested below the root (ranking has no meaning inside
// point arithmetic).
func (e *Expr) SplitTopK() (int, *Expr, error) {
	root, isTopK := e.root.(*callNode)
	if !isTopK || root.name != "topk" {
		if e.HasCall("topk") {
			return 0, nil, &SyntaxError{Src: e.src, Pos: topkPos(e.root),
				Msg: "topk() must be the outermost construct of a query expression"}
		}
		return 0, nil, nil
	}
	kn, ok := root.args[0].(*numberNode)
	if !ok || kn.val != float64(int(kn.val)) || kn.val < 1 {
		return 0, nil, &SyntaxError{Src: e.src, Pos: root.pos,
			Msg: "topk() needs a positive integer literal as its first argument"}
	}
	var b strings.Builder
	root.args[1].render(&b)
	inner := newExpr(b.String(), root.args[1], e.groupBy)
	if inner.HasCall("topk") {
		return 0, nil, &SyntaxError{Src: e.src, Pos: topkPos(inner.root),
			Msg: "topk() cannot be nested"}
	}
	return int(kn.val), inner, nil
}

// topkPos finds the byte offset of the first topk call under n, for
// error messages; 0 when none is recorded.
func topkPos(n node) int {
	pos := -1
	n.walk(func(m node) {
		if c, ok := m.(*callNode); ok && c.name == "topk" && pos < 0 {
			pos = c.pos
		}
	})
	if pos < 0 {
		return 0
	}
	return pos
}

// SuggestNames returns up to three candidates from known that are
// closest to name by edit distance — the "did you mean" list the query
// endpoint attaches to unknown-identifier errors. Only reasonably
// close names (distance ≤ half the name's length, minimum 2) qualify.
func SuggestNames(name string, known []string) []string {
	type cand struct {
		name string
		dist int
	}
	limit := len(name) / 2
	if limit < 2 {
		limit = 2
	}
	var cands []cand
	for _, k := range known {
		if d := editDistance(strings.ToUpper(name), strings.ToUpper(k)); d <= limit {
			cands = append(cands, cand{k, d})
		}
	}
	sort := func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && sort(j, j-1); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > 3 {
		cands = cands[:3]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// UnknownNameHint builds the "did you mean" suggestion for an unknown
// identifier, or "" when nothing known is close.
func UnknownNameHint(name string, known []string) string {
	if s := SuggestNames(name, known); len(s) > 0 {
		return "did you mean " + strings.Join(s, ", ") + "?"
	}
	return ""
}

// ParseStep parses a query step like "30s", "1m", "1h" or a bare
// number of seconds, shared by the HTTP handler and the query client.
func ParseStep(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	mult := 1.0
	num := s
	switch s[len(s)-1] {
	case 's':
		num = s[:len(s)-1]
	case 'm':
		num, mult = s[:len(s)-1], 60
	case 'h':
		num, mult = s[:len(s)-1], 3600
	}
	v, err := strconv.ParseFloat(num, 64)
	// Written so that NaN fails it too; ±Inf is no bucket width either.
	if err != nil || !(v >= 0) || math.IsInf(v*mult, 0) {
		return 0, fmt.Errorf("bad step %q (use seconds or 30s/1m/1h)", s)
	}
	return v * mult, nil
}

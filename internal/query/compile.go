// Package query is the shared range-query engine: the screen expression
// language (internal/metrics) evaluated as time series over labelled
// sources of store records — a store's downsample tiers (store.Store,
// on disk or a recorder's in memory), several agents' stores merged on
// aligned steps. One engine, one
// grammar, one slot binding and one totality rule serve the interactive
// screens, the /api/v1/query?expr= endpoint and the fleet aggregator,
// so `delta(INSTRUCTIONS)/delta(CYCLES)` means exactly the same thing
// in a terminal column, a stored range query and a cluster roll-up. The
// raw per-task form (?pid=, RunRaw) is a plan on the same fold with a
// second output shape, not a second fold.
package query

import (
	"fmt"
	"slices"

	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// DoS guards on compiled expressions: a query endpoint accepts
// arbitrary expressions from the network, so both the source length
// and the parsed node count are capped (an adversarial expression can
// pack many nodes into few bytes; the parser itself already bounds
// nesting depth).
const (
	MaxExprLen   = 4096
	MaxExprNodes = 512
)

// Compiled is a validated query expression, split into the parts the
// engine executes: the per-bucket expression, the optional topk rank
// count, and the optional grouping key.
type Compiled struct {
	// Source is the original expression text.
	Source string
	// Expr is the per-bucket expression (the inside of topk, when one
	// was present).
	Expr *metrics.Expr
	// K is the topk() rank count; 0 when the query keeps every series.
	K int
	// GroupBy is "", "user", "command" or "agent".
	GroupBy string
	// Pointwise is set when the expression folds *_over_time functions
	// and so needs the individual points inside each bucket.
	Pointwise bool
	// slots is the layout of the rows the engine folds records into —
	// DELTA_NS, CPU_PCT, then the events and columns Expr references —
	// and bound is Expr resolved to it.
	slots []string
	bound *metrics.Bound
	// pid is a raw plan's task filter (-1: every task); see rawPlan.
	pid int
}

// rawPlan is the plan of a raw range query (?pid=, RunRaw): no
// expression, the tasks of pid (every task when pid < 0). The engine
// gives it a column slot for every column the range carries, folds each
// record's machine roll-up as its total, and renders a RawResult.
func rawPlan(pid int) *Compiled {
	return &Compiled{pid: max(pid, -1), slots: []string{metrics.VarDeltaNS, metrics.VarCPUPct, hpm.EventInstructions, hpm.EventCycles}}
}

// raw reports whether c is a raw plan rather than an expression.
func (c *Compiled) raw() bool { return c.Expr == nil }

// Row positions: two context variables, then the referenced names — for
// a raw plan, the two events its IPC reads, then columns.
const (
	slotDeltaNS = iota
	slotCPU
	slotCols
)

const (
	rawInstr = slotCols + iota
	rawCycles
	rawCols
)

// countNames are the three counts a source that names no events yet
// answers for.
var countNames = []string{hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses}

// KnownNames is the vocabulary of a source counting events (countNames
// when none are given) and labelled cols: the events, DELTA_NS, CPU_PCT,
// then the columns; a name that is both is the event.
func KnownNames(cols []string, events ...string) []string {
	if len(events) == 0 {
		events = countNames
	}
	out := append(slices.Clone(events), metrics.VarDeltaNS, metrics.VarCPUPct)
	for _, c := range cols {
		if !slices.Contains(events, c) {
			out = append(out, c)
		}
	}
	return out
}

// Names is the identifier vocabulary of a query over srcs: KnownNames
// of the union of their columns and of their events.
func Names(srcs map[string]Source) []string {
	var cols, events []string
	for _, src := range srcs {
		cols, events = append(cols, src.Columns()...), append(events, src.Events()...)
	}
	slices.Sort(cols)
	slices.Sort(events)
	return KnownNames(slices.Compact(cols), slices.Compact(events)...)
}

// Compile parses and validates a query expression against the
// identifier vocabulary of the backend it will run on. Errors carry
// the offending position (metrics.SyntaxError), and unknown
// identifiers name the nearest known ones.
func Compile(src string, known []string) (*Compiled, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("query: empty expression")
	}
	if len(src) > MaxExprLen {
		return nil, fmt.Errorf("query: expression too long (%d bytes, max %d)", len(src), MaxExprLen)
	}
	e, err := metrics.Compile(src)
	if err != nil {
		return nil, err
	}
	if n := e.NodeCount(); n > MaxExprNodes {
		return nil, fmt.Errorf("query: expression too complex (%d nodes, max %d)", n, MaxExprNodes)
	}
	c := &Compiled{Source: src, Expr: e, GroupBy: e.GroupBy()}
	if k, inner, err := e.SplitTopK(); err != nil {
		return nil, err
	} else if inner != nil {
		c.K, c.Expr = k, inner
	}
	for _, id := range c.Expr.Identifiers() {
		if !slices.Contains(known, id) {
			// Msg and Hint stay separate so the HTTP envelope can carry
			// the did-you-mean structurally; Error() renders both.
			return nil, &metrics.SyntaxError{
				Src: src, Pos: identPos(src, id),
				Msg:  fmt.Sprintf("unknown event or column %q", id),
				Hint: metrics.UnknownNameHint(id, known),
			}
		}
	}
	c.Pointwise = c.Expr.NeedsPointwise()
	c.slots = []string{metrics.VarDeltaNS, metrics.VarCPUPct}
	for _, id := range c.References() {
		if !slices.Contains(c.slots, id) {
			c.slots = append(c.slots, id)
		}
	}
	if c.bound, err = c.Expr.Bind(c.slots); err != nil {
		return nil, err // unreachable: every identifier has a slot
	}
	return c, nil
}

// References returns the distinct identifiers the compiled per-bucket
// expression reads — the projection a storage backend can restrict its
// decode to. Event and context names appear alongside screen column
// names; a backend matches what it recognizes and ignores the rest.
func (c *Compiled) References() []string {
	return c.Expr.Identifiers()
}

// identPos locates an identifier in the source for error reporting.
// The lexer does not record per-identifier positions, but a plain
// substring search is exact enough for a "did you mean" diagnostic.
func identPos(src, id string) int {
	for i := 0; i+len(id) <= len(src); i++ {
		if src[i:i+len(id)] == id &&
			(i == 0 || !identByte(src[i-1])) &&
			(i+len(id) == len(src) || !identByte(src[i+len(id)])) {
			return i
		}
	}
	return 0
}

func identByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

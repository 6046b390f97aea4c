package store

// Derived columns (record format v4). Every raw row stores its
// INSTRUCTIONS, CYCLES and CACHE_MISSES counts, and the default screen's
// columns — Mcycle, Minst, IPC, DMIS — are functions of exactly those.
// A raw record therefore leaves out a column whose every row's value is
// what the column's expression computes from that row's stored counts,
// bit for bit, and readers recompute it. The expression sources travel
// in the segment dictionary, referenced from the column header that
// names the columns; a record's omission mask names the columns it left
// out. Only the writer can know a column is derivable: the engine's
// samples name the screen whose programs computed their values, and the
// writer verifies every row before it omits anything. A sample whose
// values came from elsewhere (a wire feed, a hand-built sample) names
// no screen and is stored as given, and so is a column one row of which
// fails verification, for that record.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"tiptop/internal/binenc"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// derivedInputs is the slot vector a derived column's program reads:
// the counts every raw row stores.
var derivedInputs = []string{hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses}

// maxDerived bounds the columns a record may omit: its mask is one
// uvarint of 64 bits, so columns past the 64th are always stored.
const maxDerived = 64

// derivation names, for the columns in force, the ones the stored counts
// may determine: per column the expression source ("" for a column that
// is always stored) and its program over derivedInputs. A writer and a
// reader hold the one in force in the segment they write or read; it is
// immutable, and shared (derivationOf).
type derivation struct {
	src   []string
	prog  []*metrics.Bound
	depth int // the deepest program's evaluation stack
}

// compileDerived compiles src into the program a derived column runs.
func compileDerived(src string) (*metrics.Bound, error) {
	e, err := metrics.Compile(src)
	if err != nil {
		return nil, err
	}
	if err := derivable(e); err != nil {
		return nil, err
	}
	return e.Bind(derivedInputs)
}

// derivable reports why e cannot compute a derived column, nil when it
// can: an instant expression that reads nothing but the stored counts.
func derivable(e *metrics.Expr) error {
	if why := e.SeriesOnly(); why != "" {
		return fmt.Errorf("%s is not an instant expression", why)
	}
	for _, id := range e.Reads() {
		if !slices.Contains(derivedInputs, id) {
			return fmt.Errorf("reads %s, which a row does not store", id)
		}
	}
	return nil
}

// derivations holds every derivation built so far. A derivation is a
// pure function of its sources, so every store and walker in the process
// shares them: a scanner the pool let go at a collection, or a store
// reopened, finds its programs compiled. Bounded: past maxDerivations
// (only a store naming ever new expressions gets there) a derivation is
// built afresh each time it is read.
var derivations struct {
	sync.Mutex
	known []*derivation
}

const maxDerivations = 64

// derivationOf returns the derivation of the per-column sources src (""
// for a stored column), nil when src names no expression. A source that
// is no derived column's expression is an error.
func derivationOf(src []string) (*derivation, error) {
	if d := knownDerivation(src); d != nil {
		return d, nil
	}
	d := &derivation{src: slices.Clone(src), prog: make([]*metrics.Bound, len(src))}
	for j, s := range src {
		if s == "" {
			continue
		}
		p, err := compileDerived(s)
		if err != nil {
			return nil, fmt.Errorf("column %d's expression %q: %w", j, s, err)
		}
		d.prog[j], d.depth = p, max(d.depth, p.Depth())
	}
	if d.depth == 0 {
		return nil, nil
	}
	derivations.Lock()
	defer derivations.Unlock()
	if len(derivations.known) < maxDerivations {
		derivations.known = append(derivations.known, d)
	}
	return d, nil
}

func knownDerivation(src []string) *derivation {
	derivations.Lock()
	defer derivations.Unlock()
	for _, d := range derivations.known {
		if slices.Equal(d.src, src) {
			return d
		}
	}
	return nil
}

// same reports whether d and o derive the same columns the same way.
func (d *derivation) same(o *derivation) bool {
	return d == o || d != nil && o != nil && slices.Equal(d.src, o.src)
}

// stackIn returns evaluation scratch for d's programs: buf, unless a
// program is deeper than screen columns get.
func (d *derivation) stackIn(buf []float64) []float64 {
	if d.depth > len(buf) {
		return make([]float64, d.depth)
	}
	return buf
}

// eval computes column j of row r from its counts, with stack (see
// stackIn) as scratch.
func (d *derivation) eval(j int, r *RecordRow, stack []float64) float64 {
	slots := [...]float64{float64(r.Instr), float64(r.Cycles), float64(r.Misses)}
	return d.prog[j].Eval(slots[:], stack)
}

// omit returns the mask of the columns rows need not store: those whose
// every value (in every row that has the column) is what its program
// gives over the row's counts, bit for bit. 0 for a nil d.
func (d *derivation) omit(rows []RecordRow) (mask uint64) {
	if d == nil || len(rows) == 0 {
		return 0
	}
	var buf [32]float64
	stack := d.stackIn(buf[:])
	for j, p := range d.prog[:min(len(d.prog), maxDerived)] {
		if p == nil {
			continue
		}
		derived := true
		for i := range rows {
			r := &rows[i]
			if j < len(r.Values) && math.Float64bits(r.Values[j]) != math.Float64bits(d.eval(j, r, stack)) {
				derived = false
				break
			}
		}
		if derived {
			mask |= 1 << j
		}
	}
	return mask
}

// deriver is a walker's decoder state for derived columns: the
// derivation in force in the segment being read (nil: none).
type deriver struct {
	cur *derivation
	src []string // read's scratch
}

// read reads the expression references of a column header naming n
// columns and returns the derivation they name.
func (dv *deriver) read(r *binenc.Reader, dict []string, n int) (*derivation, error) {
	dv.src = slices.Grow(dv.src[:0], n)
	for j := 0; j < n; j++ {
		src := ""
		if ref := r.Uvarint(); ref > uint64(len(dict)) {
			return nil, fmt.Errorf("store: binary record references dictionary entry %d of %d", ref-1, len(dict))
		} else if ref > 0 {
			src = dict[ref-1]
		}
		dv.src = append(dv.src, src)
	}
	der, err := derivationOf(dv.src)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt binary record: %w", err)
	}
	return der, nil
}

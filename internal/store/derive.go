package store

// Derived columns. Most screen columns are functions of a row's event
// counts and CPU%, so a record leaves out a column whose every row's
// value is what its expression computes from the row's counts (per
// refresh, Σcount/N, on a downsampled row), bit for bit, and readers
// recompute it. The sources travel in the segment dictionary, named by
// the layout header; the omission mask names what a record left out.
// Only engine samples name the screen that computed their values, and
// the writer verifies every row before it omits anything; any other
// sample is stored as given, as is a column one row of which fails, or
// that reads what a row does not store (DELTA_NS, SMPL_PCT, FREQ_HZ,
// NUM_CPUS).

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"tiptop/internal/binenc"
	"tiptop/internal/metrics"
)

// maxDerived bounds the columns a record may omit: its mask is one
// uvarint of 64 bits, so columns past the 64th are always stored.
const maxDerived = 64

// derivation names, for the columns in force, the ones the counts may
// determine: per column the expression source ("" for a stored column)
// and its program over the events, then CPU_PCT. It is immutable, and
// shared (derivationOf).
type derivation struct {
	src    []string
	events []string
	prog   []*metrics.Bound
}

// derivable reports why e cannot compute a column over events: nil for
// an instant expression reading nothing but the events and CPU_PCT.
func derivable(e *metrics.Expr, events []string) error {
	if why := e.SeriesOnly(); why != "" {
		return fmt.Errorf("%s is not an instant expression", why)
	}
	for _, id := range e.Reads() {
		if id != metrics.VarCPUPct && !slices.Contains(events, id) {
			return fmt.Errorf("reads %s, which a row does not store", id)
		}
	}
	return nil
}

// derivations holds every derivation built so far — a pure function of
// its sources and events, shared process-wide. Past maxDerivations (a
// store naming ever new expressions) one is built afresh when read.
var derivations struct {
	sync.Mutex
	known []*derivation
}

const maxDerivations = 64

// derivationOf returns the derivation of the per-column sources src (""
// for a stored column) over events, nil when src names no expression,
// and an error for a source no derived column over events may have.
func derivationOf(src, events []string) (*derivation, error) {
	if !slices.ContainsFunc(src, func(s string) bool { return s != "" }) {
		return nil, nil
	}
	if d := knownDerivation(src, events); d != nil {
		return d, nil
	}
	d := &derivation{src: slices.Clone(src), events: slices.Clone(events), prog: make([]*metrics.Bound, len(src))}
	slots := append(slices.Clip(d.events), metrics.VarCPUPct)
	for j, s := range src {
		if s == "" {
			continue
		}
		e, err := metrics.Compile(s)
		if err == nil {
			err = derivable(e, events)
		}
		if err == nil {
			d.prog[j], err = e.Bind(slots)
		}
		if err != nil {
			return nil, fmt.Errorf("column %d's expression %q: %w", j, s, err)
		}
	}
	derivations.Lock()
	defer derivations.Unlock()
	if len(derivations.known) < maxDerivations {
		derivations.known = append(derivations.known, d)
	}
	return d, nil
}

func knownDerivation(src, events []string) *derivation {
	derivations.Lock()
	defer derivations.Unlock()
	for _, d := range derivations.known {
		if slices.Equal(d.src, src) && slices.Equal(d.events, events) {
			return d
		}
	}
	return nil
}

// same reports whether d and o derive the same columns the same way.
func (d *derivation) same(o *derivation) bool {
	return d == o || d != nil && o != nil && slices.Equal(d.src, o.src) && slices.Equal(d.events, o.events)
}

// mask returns the mask of every column d derives.
func (d *derivation) mask() (mask uint64) {
	for j, p := range d.prog[:min(len(d.prog), maxDerived)] {
		if p != nil {
			mask |= 1 << j
		}
	}
	return mask
}

// each evaluates mask's programs over every row that has their column —
// over its counts per refresh, then its CPU% — and hands fn the row, the
// column and the value; a false drops the column from the returned mask.
// The rows are staged into one slot matrix and each program runs over
// it through the column kernel.
func (d *derivation) each(rows []RecordRow, mask uint64, fn func(r *RecordRow, j int, v float64) bool) uint64 {
	if mask == 0 {
		return 0
	}
	sc := getEvalScratch()
	defer releaseEvalScratch(sc)
	n := len(d.events)
	stride := n + 1
	sc.lanes = grown(sc.lanes, len(rows)*stride)
	sc.out = grown(sc.out, len(rows))
	for i := range rows {
		r, slots := &rows[i], sc.lanes[i*stride:(i+1)*stride]
		for e := range n {
			if slots[e] = float64(at(r.Counts, e)); r.N > 1 {
				slots[e] /= float64(r.N)
			}
		}
		slots[n] = r.CPUPct
	}
	out := sc.out[:len(rows)]
	for m := mask; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		d.prog[j].EvalRows(out, sc.lanes, stride, &sc.kernel)
		for i := range rows {
			if r := &rows[i]; j < len(r.Values) && !fn(r, j, out[i]) {
				mask &^= 1 << j
				break
			}
		}
	}
	return mask
}

// grown returns s when it holds n values, else a slice that does, with
// room to grow.
func grown(s []float64, n int) []float64 {
	if len(s) < n {
		return make([]float64, max(n, 2*len(s)))
	}
	return s
}

// evalScratch is what each stages rows and runs the column kernel in.
type evalScratch struct {
	lanes, out []float64
	kernel     metrics.Scratch
}

// evalScratches is the free list of idle evaluation scratch, a leaky
// buffer like the scanners': one per CPU covers the appends, scans and
// compactions evaluating at once, and each evaluation leases it briefly.
var evalScratches = make(chan *evalScratch, runtime.GOMAXPROCS(0))

func getEvalScratch() *evalScratch {
	select {
	case sc := <-evalScratches:
		return sc
	default:
		return new(evalScratch)
	}
}

func releaseEvalScratch(sc *evalScratch) {
	select {
	case evalScratches <- sc:
	default:
	}
}

// omit returns the mask of the columns whose every value is what its
// program gives over the row's counts, bit for bit. 0 for a nil d.
func (d *derivation) omit(rows []RecordRow) uint64 {
	if d == nil || len(rows) == 0 {
		return 0
	}
	return d.each(rows, d.mask(), func(r *RecordRow, j int, v float64) bool {
		return math.Float64bits(r.Values[j]) == math.Float64bits(v)
	})
}

// fill computes the columns of mask into every row that has them.
func (d *derivation) fill(rows []RecordRow, mask uint64) {
	d.each(rows, mask, func(r *RecordRow, j int, v float64) bool { r.Values[j] = v; return true })
}

// deriver is a walker's decoder state for a segment's layout: the
// events and the derivation (nil: none) in force; a new segment starts
// with neither.
type deriver struct {
	cur    *derivation
	events []string // owned by the walk: records keep it
	last   []string // the events last handed over, for the next segment to reuse
	src    []string // read's scratch
	evs    []string // readHeader's scratch
}

// read reads a header's expression references for n columns and returns
// the derivation they name over events.
func (dv *deriver) read(r *binenc.Reader, dict []string, n int, events []string) (*derivation, error) {
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
	der, err := derivationOf(dv.src, events)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt binary record: %w", err)
	}
	return der, nil
}

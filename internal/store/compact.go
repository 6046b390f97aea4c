package store

// Compaction: rewriting a tier's sealed segments into fewer, fuller
// ones. Live segments already hold record-format-v5 frames; the rewrite
// merges segments that sealed small (by age, or fragmented by restarts)
// into full-size ones under a single dictionary and rewrites the
// previous build's v4 frames as v5.
//
// A v5 data frame is transcoded, not decoded: all that changes is its
// dictionary indices — the merged table numbers strings its own way —
// and whether it carries the layout header. So the rewrite validates
// the frame without decoding it (walkData), writes the header afresh or
// leaves it out, remaps the rows' user and command indices, and copies
// every other byte: task IDs, the CPU% and value XOR chains, the
// omission mask, the counts and the roll-up. v4 frames are decoded and
// encoded again, since their columns verify anew over v5's events. The
// output is byte for byte what decoding and encoding every record would
// write, so query results are unchanged by construction: every record
// and field is carried bit-exactly, and an omitted column is omitted
// again where it still verifies.
//
// Crash safety follows the name-carries-the-range protocol:
//
//  1. the merged output is written to "<tier>-<a>.cmpct" and fsynced;
//  2. it is renamed (published) to "<tier>-<a>-<b>.cseg", where [a, b]
//     is the sequence range of the segments it replaces;
//  3. the in-memory chain is swapped under the store lock;
//  4. the input files are unlinked.
//
// recover() finishes whatever step a crash interrupted: a .cmpct file
// is deleted (its inputs are intact), a published .cseg supersedes
// every segment file whose sequence range it contains. A tier whose
// rewrite fails before step 3 removes what it published, so its inputs
// stay the only copy. No output takes an input's name: a compacted input
// that an output would hold alone stays in the chain as it is, since
// rewriting it alone changes only its dictionary. Retention is deferred
// while a rewrite is in flight so inputs cannot vanish mid-read; it
// catches up on the next append.

import (
	"bufio"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// CompactOptions is a compaction pass's argument. It has no fields: a
// pass rewrites and merges every sealed segment and keeps every record.
// The type stays so that callers of Compact(CompactOptions{}) keep
// compiling.
type CompactOptions struct{}

// TierCompaction reports one tier's rewrite.
type TierCompaction struct {
	Tier        string `json:"tier"`
	Segments    int    `json:"segments"`
	Records     int64  `json:"records"`
	BytesBefore int64  `json:"bytes_before"`
	BytesAfter  int64  `json:"bytes_after"`
}

// CompactionResult reports a whole compaction pass, one entry per tier
// that had anything to rewrite.
type CompactionResult struct {
	Tiers []TierCompaction `json:"tiers"`
}

// Compact rewrites every tier's sealed segments, merging them into
// compacted segments of Options.SegmentBytes (all record format v5,
// whatever the inputs held). The active segments are untouched —
// appends and queries run concurrently with the rewrite (queries see
// the swap atomically). Calling Compact on a store with nothing to
// rewrite is a cheap no-op.
func (st *Store) Compact(CompactOptions) (*CompactionResult, error) {
	type job struct {
		t      *tier
		inputs []*segment
	}
	st.mu.Lock()
	if st.tiers == nil {
		st.mu.Unlock()
		return nil, errors.New("store: closed")
	}
	if st.compacting {
		st.mu.Unlock()
		return nil, errors.New("store: compaction already running")
	}
	var jobs []job
	for _, t := range st.tiers {
		inputs := append([]*segment(nil), t.sealed...)
		plain := 0
		for _, sg := range inputs {
			if sg.plain() {
				plain++
			}
		}
		// Worth rewriting: any not-yet-compacted segment, or two or more
		// compacted ones to merge. A single already-compacted segment
		// would be rewritten into itself.
		if plain == 0 && len(inputs) < 2 {
			continue
		}
		jobs = append(jobs, job{t: t, inputs: inputs})
	}
	st.compacting = len(jobs) > 0
	st.mu.Unlock()
	res := &CompactionResult{}
	if len(jobs) == 0 {
		return res, nil
	}
	defer func() {
		st.mu.Lock()
		st.compacting = false
		st.mu.Unlock()
	}()
	for _, j := range jobs {
		tc, chain, err := st.compactTier(j.t, j.inputs)
		if err != nil {
			return res, err
		}
		if len(chain) > 0 {
			st.mu.Lock()
			if st.tiers == nil {
				st.mu.Unlock()
				return res, errors.New("store: closed during compaction")
			}
			// Retention was deferred, so the inputs are still the prefix
			// of the sealed chain; anything sealed since stays behind them.
			j.t.sealed = append(chain, j.t.sealed[len(j.inputs):]...)
			st.mu.Unlock()
			for _, in := range j.inputs {
				if !slices.Contains(chain, in) {
					_ = st.fsys.remove(in.path)
				}
			}
		}
		res.Tiers = append(res.Tiers, tc)
	}
	return res, nil
}

// compactTier rewrites one tier's inputs in two streaming passes over
// their frames. The first builds the output's dictionary from the
// strings each data frame references (compactWriter.intern); the second
// rewrites every data frame into the outputs (compactWriter.data).
// It returns the tier's new chain for the inputs: the outputs, and the
// compacted inputs kept as they are, in sequence order. Runs without the
// store lock — inputs are sealed and retention is deferred. A failed
// rewrite leaves no output behind.
func (st *Store) compactTier(t *tier, inputs []*segment) (tc TierCompaction, chain []*segment, err error) {
	tc = TierCompaction{Tier: tierNames[t.idx], Segments: len(inputs)}
	sc := getScanner(st.fsys, nil)
	defer sc.release()
	w := &compactWriter{fsys: st.fsys, dir: st.dir, tier: tierNames[t.idx], dict: newV2Dict(nil), sc: sc}
	defer func() {
		if err != nil {
			w.abort()
		}
	}()
	each := func(in *segment, fn func(p []byte, t time.Duration) error) error {
		w.remap = w.remap[:0] // each input has a table of its own
		return sc.frames(queryFile{path: in.path, valid: in.size}, fn)
	}
	for _, in := range inputs {
		tc.BytesBefore += in.size
		err := each(in, func(p []byte, _ time.Duration) error {
			tc.Records++
			return w.intern(p)
		})
		if err != nil {
			return tc, nil, err
		}
	}
	if tc.Records == 0 {
		return tc, nil, nil
	}
	finish := func() error {
		n := len(w.outs)
		err := w.finish()
		chain = append(chain, w.outs[n:]...)
		return err
	}
	last := len(inputs) - 1
	for i, in := range inputs {
		if w.f == nil {
			// A compacted input that would fill a fresh output alone, or
			// end the pass in one, stays as it is.
			if !in.plain() && (in.size >= st.opt.SegmentBytes || i == last) {
				chain = append(chain, in)
				continue
			}
			if err := w.start(in.seq); err != nil {
				return tc, nil, err
			}
		}
		if err := each(in, w.data); err != nil {
			return tc, nil, err
		}
		w.b = in.seqEnd
		// An output holding one compacted input takes the next one too,
		// whatever its size: alone, it would take the input's name.
		if w.size >= st.opt.SegmentBytes && i < last && (in.plain() || w.a != in.seq) {
			if err := finish(); err != nil {
				return tc, nil, err
			}
		}
	}
	if err := finish(); err != nil {
		return tc, nil, err
	}
	for _, sg := range chain {
		tc.BytesAfter += sg.size
	}
	return tc, chain, nil
}

// compactWriter produces the output segments of one tier's rewrite,
// one at a time: dictionary frame first, then data frames, finished by
// fsync + publish rename.
type compactWriter struct {
	fsys      filesystem
	dir, tier string
	dict      *v2Dict
	f         file
	bw        *bufio.Writer
	tmpPath   string
	a, b      int64
	size      int64
	n         int64
	first     time.Duration
	last      time.Duration
	buf       []byte
	outs      []*segment

	// The walk over the inputs: sc reads them, holding the input's table
	// and layout in force; remap holds, per entry of that table, 1 + the
	// output's entry for it (0: not met yet).
	sc    *segScanner
	remap []uint64
	lay   frameLayout // the frame in hand
	rec   Record      // the frame in hand, decoded, when it is encoded again
	cols  []string    // the columns in force: an owned copy
	// The layout the current output last wrote a header for.
	headed  bool
	written struct {
		cols, events []string
		der          *derivation
	}
}

// start opens the unpublished output covering inputs from sequence a.
func (w *compactWriter) start(a int64) error {
	w.tmpPath = filepath.Join(w.dir, fmt.Sprintf("%s-%010d%s", w.tier, a, compactingExt))
	f, err := w.fsys.create(w.tmpPath)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w.f, w.bw = f, bufio.NewWriterSize(f, 1<<16)
	w.a, w.b = a, a
	w.size, w.n, w.first, w.last = 0, 0, 0, 0
	w.headed = false
	w.buf = w.dict.appendDictFrame(beginFrame(w.buf[:0]), 0)
	return w.writeFrame()
}

// ref returns the output's entry for entry idx of the input's table,
// interning its string the first time the input references it.
func (w *compactWriter) ref(idx uint64) uint64 {
	if n := len(w.remap); idx >= uint64(n) {
		w.remap = slices.Grow(w.remap, len(w.sc.dict)-n)[:len(w.sc.dict)]
		clear(w.remap[n:])
	}
	if r := w.remap[idx]; r > 0 {
		return r - 1
	}
	r := w.dict.intern(w.sc.dict[idx])
	w.remap[idx] = r + 1
	return r
}

// intern folds the strings data payload p references into the output's
// table in the order a decode meets them: per row its user, then its
// command; then the columns and events a layout header names (a v4
// frame's are fixed) and the expressions of the derivation it sets.
func (w *compactWriter) intern(p []byte) error {
	sc, lay := w.sc, &w.lay
	if err := walkData(p, sc.dict, &sc.dv, lay, false); err != nil {
		return err
	}
	users, cmds := lay.refs[:lay.nrows], lay.refs[lay.nrows:]
	for i := range users {
		w.ref(users[i])
		w.ref(cmds[i])
	}
	for _, c := range lay.cols {
		w.dict.intern(c)
	}
	if lay.flags&v2FlagCols != 0 || p[0] == recordVersionV4 {
		for _, e := range sc.dv.events {
			w.dict.intern(e)
		}
	}
	if der := sc.dv.cur; len(lay.cols) > 0 && der != nil {
		for _, src := range der.src {
			if src != "" {
				w.dict.intern(src)
			}
		}
	}
	return nil
}

// data rewrites one input data frame, payload p at time t, into the
// current output as a v5 frame. Each output's first record carries the
// layout in force; later ones only a genuine change of it. A v5 frame
// laid out as appendData would lay out its record (asEncoded) is
// transcoded: validated by walkData, then rewritten by appendTranscoded
// with its rows' dictionary indices renumbered for the output. Any other
// frame is decoded and encoded again: a v4 frame, whose columns verify
// anew over v5's events, or a v5 frame that stores a column its
// derivation derives, which an encode verifies again.
func (w *compactWriter) data(p []byte, t time.Duration) error {
	sc, lay := w.sc, &w.lay
	copied := p[0] > recordVersionV4
	if copied {
		if err := walkData(p, sc.dict, &sc.dv, lay, true); err != nil {
			return err
		}
		copied = lay.asEncoded(sc.dv.cur)
	}
	cols := lay.cols
	if !copied {
		if err := decodeDataInto(&w.rec, p, sc.dict, nil, &sc.dv); err != nil {
			return err
		}
		cols = w.rec.Cols
	}
	if len(cols) > 0 && !slices.Equal(cols, w.cols) {
		w.cols = slices.Clone(cols)
	}
	events, der := sc.dv.events, sc.dv.cur
	head := !w.headed || !slices.Equal(w.written.cols, w.cols) ||
		!slices.Equal(w.written.events, events) || der != nil && !der.same(w.written.der)
	if head {
		w.headed = true
		w.written.cols, w.written.events, w.written.der = w.cols, events, der
	}
	buf := beginFrame(w.buf[:0])
	if copied {
		for i, idx := range lay.refs {
			lay.refs[i] = w.ref(idx)
		}
		buf = appendTranscoded(buf, p, lay, w.dict, w.cols, events, der, head)
	} else {
		out := w.rec
		out.Cols = w.cols
		buf = appendData(buf, &out, w.dict, der, head)
	}
	w.buf = buf
	if err := w.writeFrame(); err != nil {
		return err
	}
	if w.n == 0 {
		w.first = t
	}
	w.last = t
	w.n++
	return nil
}

// writeFrame seals the frame built in w.buf and writes it out.
func (w *compactWriter) writeFrame() error {
	endFrame(w.buf)
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w.size += int64(len(w.buf))
	return nil
}

// finish fsyncs and publishes the current output as a .cseg segment.
func (w *compactWriter) finish() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	err := w.f.Close()
	w.f, w.bw = nil, nil
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	final := compactedPath(w.dir, w.tier, w.a, w.b, compactedExt)
	if err := w.fsys.rename(w.tmpPath, final); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w.tmpPath = ""
	// Make the publish durable before anyone unlinks the inputs.
	w.fsys.syncDir(w.dir)
	w.outs = append(w.outs, &segment{
		path: final, seq: w.a, seqEnd: w.b,
		size: w.size, n: w.n, first: w.first, last: w.last,
	})
	return nil
}

// abort discards the unpublished output and every output already
// published, so the inputs stay the whole story.
func (w *compactWriter) abort() {
	if w.f != nil {
		_ = w.f.Close()
		w.f, w.bw = nil, nil
	}
	if w.tmpPath != "" {
		_ = w.fsys.remove(w.tmpPath)
	}
	for _, o := range w.outs {
		_ = w.fsys.remove(o.path)
	}
}

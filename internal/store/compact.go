package store

// Compaction: rewriting a tier's sealed segments into fewer, fuller
// ones. Live segments already hold record-format-v5 frames; the rewrite
// merges segments that sealed small (by age, or fragmented by restarts)
// into full-size ones under a single dictionary and rewrites the
// previous build's v4 frames as v5. Query results are unchanged by
// construction: every record and field is carried bit-exactly, and an
// omitted column is omitted again where it still verifies.
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
// stay the only copy. Retention is deferred while a rewrite is in
// flight so inputs cannot vanish mid-read; it catches up on the next
// append.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
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
			if sg.seqEnd == sg.seq && filepath.Ext(sg.path) == segmentExt {
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
		tc, outs, err := st.compactTier(j.t, j.inputs)
		if err != nil {
			return res, err
		}
		if len(outs) > 0 {
			st.mu.Lock()
			if st.tiers == nil {
				st.mu.Unlock()
				return res, errors.New("store: closed during compaction")
			}
			// Retention was deferred, so the inputs are still the prefix
			// of the sealed chain; anything sealed since stays behind them.
			j.t.sealed = append(outs, j.t.sealed[len(j.inputs):]...)
			st.mu.Unlock()
			// An output spanning exactly one already-compacted input is
			// published over the input's own path (the name encodes the
			// sequence range) — that path now holds the output, so it
			// must survive the input cleanup.
			for _, in := range j.inputs {
				if !hasPath(outs, in.path) {
					_ = st.fsys.remove(in.path)
				}
			}
		}
		res.Tiers = append(res.Tiers, tc)
	}
	return res, nil
}

// compactTier rewrites one tier's inputs. Two streaming passes: the
// first builds the string dictionary, the second encodes. Runs without
// the store lock — inputs are sealed and retention is deferred. A failed
// rewrite leaves no output behind.
func (st *Store) compactTier(t *tier, inputs []*segment) (tc TierCompaction, outs []*segment, err error) {
	tc = TierCompaction{Tier: tierNames[t.idx], Segments: len(inputs)}
	w := &compactWriter{fsys: st.fsys, dir: st.dir, tier: tierNames[t.idx], dict: newV2Dict(nil)}
	defer func() {
		if err != nil {
			w.abort(inputs)
		}
	}()
	// Both passes ride the scan walker over each input's whole time
	// range, decoding every field into one scratch record.
	sc := getScanner(st.fsys, nil)
	defer sc.release()
	scratch := &Record{}
	each := func(in *segment, fn func(rec *Record, fileCols []string) error) error {
		f := queryFile{path: in.path, valid: in.size}
		return sc.scanFile(f, math.MinInt64, math.MaxInt64, func() *Record { return scratch }, fn)
	}
	for _, in := range inputs {
		tc.BytesBefore += in.size
		err := each(in, func(rec *Record, _ []string) error {
			tc.Records++
			for i := range rec.Rows {
				w.dict.intern(rec.Rows[i].User)
				w.dict.intern(rec.Rows[i].Command)
			}
			for _, c := range rec.Cols {
				w.dict.intern(c)
			}
			for _, e := range rec.Events {
				w.dict.intern(e)
			}
			if der := sc.dv.cur; len(rec.Cols) > 0 && der != nil {
				for _, src := range der.src {
					if src != "" {
						w.dict.intern(src)
					}
				}
			}
			return nil
		})
		if err != nil {
			return tc, nil, err
		}
	}
	if tc.Records == 0 {
		return tc, nil, nil
	}
	var activeCols, writtenCols, writtenEvents []string
	var writtenDer *derivation
	headed := false // the output segment has a layout header
	for i, in := range inputs {
		if w.f == nil {
			if err := w.start(in.seq); err != nil {
				return tc, nil, err
			}
			headed = false
		}
		err := each(in, func(rec *Record, fileCols []string) error {
			if fileCols != nil {
				activeCols = fileCols // owned by the walk, unlike rec.Cols
			}
			out := *rec
			// Each output segment's first record carries the layout in
			// force; later ones only a genuine change of it.
			der := sc.dv.cur
			head := !headed || !slices.Equal(writtenCols, activeCols) ||
				!slices.Equal(writtenEvents, rec.Events) || der != nil && !der.same(writtenDer)
			if head {
				headed, writtenCols, writtenEvents, writtenDer = true, activeCols, rec.Events, der
			}
			out.Cols = activeCols
			return w.record(&out, der, head)
		})
		if err != nil {
			return tc, nil, err
		}
		w.b = in.seqEnd
		if w.size >= st.opt.SegmentBytes && i < len(inputs)-1 {
			if err := w.finish(); err != nil {
				return tc, nil, err
			}
		}
	}
	if err := w.finish(); err != nil {
		return tc, nil, err
	}
	for _, o := range w.outs {
		tc.BytesAfter += o.size
	}
	return tc, w.outs, nil
}

// recTime recovers a record's monotonic store time, through the same
// float path every prefix parser uses so boundaries agree.
func recTime(rec *Record) time.Duration {
	return time.Duration(rec.TimeSeconds * float64(time.Second))
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
	w.buf = w.dict.appendDictFrame(beginFrame(w.buf[:0]), 0)
	return w.writeFrame()
}

// record encodes one record as a v5 data frame (see appendData).
func (w *compactWriter) record(rec *Record, der *derivation, head bool) error {
	w.buf = appendData(beginFrame(w.buf[:0]), rec, w.dict, der, head)
	if err := w.writeFrame(); err != nil {
		return err
	}
	rt := recTime(rec)
	if w.n == 0 {
		w.first = rt
	}
	w.last = rt
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
// published, so the inputs stay the whole story — except an output
// published over an input's own path, which now holds that input.
func (w *compactWriter) abort(inputs []*segment) {
	if w.f != nil {
		_ = w.f.Close()
		w.f, w.bw = nil, nil
	}
	if w.tmpPath != "" {
		_ = w.fsys.remove(w.tmpPath)
	}
	for _, o := range w.outs {
		if !hasPath(inputs, o.path) {
			_ = w.fsys.remove(o.path)
		}
	}
}

func hasPath(segs []*segment, path string) bool {
	return slices.ContainsFunc(segs, func(sg *segment) bool { return sg.path == path })
}

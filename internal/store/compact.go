package store

// Compaction: rewriting a tier's sealed segments into fewer, fuller
// ones. Live segments already hold record-format-v3 frames, so there is
// nothing left to shrink frame by frame; the rewrite merges segments
// that sealed small (by age, or fragmented by restarts) into full-size
// ones under a single dictionary, converts whatever v1 JSON or v2 frames
// an older build left behind, and optionally tombstones series that
// exited long ago. Query results are unchanged by construction — every
// field v3 keeps is carried bit-exactly, and the v2 per-row IPC it drops
// was never read — except that tombstoned rows disappear (the machine
// roll-up keeps their contribution; it is an aggregate of what happened,
// not of what is retained).
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

	"tiptop/internal/hpm"
)

// CompactOptions tune a compaction pass. The zero value rewrites and
// merges every sealed segment and keeps every series.
type CompactOptions struct {
	// TombstoneAge drops the rows of tasks whose last record is older
	// than this relative to the newest input record — series that
	// exited long ago stop costing bytes in every refresh they lived
	// through. 0 keeps everything (required for byte-identical queries).
	TombstoneAge time.Duration
}

// TierCompaction reports one tier's rewrite.
type TierCompaction struct {
	Tier             string `json:"tier"`
	Segments         int    `json:"segments"`
	Records          int64  `json:"records"`
	BytesBefore      int64  `json:"bytes_before"`
	BytesAfter       int64  `json:"bytes_after"`
	TombstonedSeries int    `json:"tombstoned_series,omitempty"`
	DroppedRows      int64  `json:"dropped_rows,omitempty"`
}

// CompactionResult reports a whole compaction pass, one entry per tier
// that had anything to rewrite.
type CompactionResult struct {
	Tiers []TierCompaction `json:"tiers"`
}

// Compact rewrites every tier's sealed segments, merging them into
// compacted segments of Options.SegmentBytes (all record format v3,
// whatever the inputs held). The active segments are untouched —
// appends and queries run concurrently with the rewrite (queries see
// the swap atomically). Calling Compact on a store with nothing to
// rewrite is a cheap no-op.
func (st *Store) Compact(opt CompactOptions) (*CompactionResult, error) {
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
		tc, outs, err := st.compactTier(j.t, j.inputs, opt)
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
// first builds the string dictionary and the per-series last-seen map,
// the second encodes. Runs without the store lock — inputs are sealed
// and retention is deferred. A failed rewrite leaves no output behind.
func (st *Store) compactTier(t *tier, inputs []*segment, opt CompactOptions) (tc TierCompaction, outs []*segment, err error) {
	tc = TierCompaction{Tier: tierNames[t.idx], Segments: len(inputs)}
	w := &compactWriter{fsys: st.fsys, dir: st.dir, tier: tierNames[t.idx], dict: newV2Dict(nil)}
	defer func() {
		if err != nil {
			w.abort(inputs)
		}
	}()
	lastSeen := make(map[hpm.TaskID]time.Duration)
	var newest time.Duration
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
			rt := recTime(rec)
			if rt > newest {
				newest = rt
			}
			for i := range rec.Rows {
				r := &rec.Rows[i]
				w.dict.intern(r.User)
				w.dict.intern(r.Command)
				lastSeen[hpm.TaskID{PID: r.PID, TID: r.TID}] = rt
			}
			for _, c := range rec.Cols {
				w.dict.intern(c)
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
	var dead map[hpm.TaskID]bool
	if opt.TombstoneAge > 0 {
		horizon := newest - opt.TombstoneAge
		dead = make(map[hpm.TaskID]bool)
		for id, seen := range lastSeen {
			if seen < horizon {
				dead[id] = true
			}
		}
		tc.TombstonedSeries = len(dead)
	}
	var activeCols, writtenCols []string
	var filtered []RecordRow
	for i, in := range inputs {
		if w.f == nil {
			if err := w.start(in.seq); err != nil {
				return tc, nil, err
			}
			writtenCols = nil
		}
		err := each(in, func(rec *Record, fileCols []string) error {
			if fileCols != nil {
				activeCols = fileCols // owned by the walk, unlike rec.Cols
			}
			out := *rec
			if len(dead) > 0 {
				filtered = filtered[:0]
				for i := range rec.Rows {
					r := &rec.Rows[i]
					if dead[hpm.TaskID{PID: r.PID, TID: r.TID}] {
						tc.DroppedRows++
						continue
					}
					filtered = append(filtered, *r)
				}
				out.Rows = filtered
			}
			// Each output segment's first record carries the columns in
			// force; mid-segment frames only carry a genuine change.
			if !sameCols(writtenCols, activeCols) {
				out.Cols = activeCols
				writtenCols = activeCols
			} else {
				out.Cols = nil
			}
			return w.record(&out)
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

func sameCols(a, b []string) bool { return slices.Equal(a, b) }

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

// record encodes one record as a v3 data frame.
func (w *compactWriter) record(rec *Record) error {
	w.buf = appendData(beginFrame(w.buf[:0]), rec, w.dict)
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

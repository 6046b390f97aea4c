package store

// The reference compaction: the record-at-a-time rewrite — every record
// decoded into a scratch record, then encoded again by appendData —
// kept test-only as the oracle compaction's transcoder (compactWriter.
// intern and .data) must match byte for byte, output file by output
// file.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tiptop/internal/core"
)

// refCompactTier rewrites one tier's inputs into dir the reference way,
// returning what it rewrote and the outputs. Pass 1 decodes every record
// to build the dictionary; pass 2 decodes every record again and encodes
// it, skipping the compacted inputs Compact keeps as they are: one that
// would fill a fresh output alone, or end the pass in one.
func refCompactTier(st *Store, t *tier, inputs []*segment, dir string) (TierCompaction, []*segment, error) {
	tc := TierCompaction{Tier: tierNames[t.idx], Segments: len(inputs)}
	w := &compactWriter{fsys: st.fsys, dir: dir, tier: tierNames[t.idx], dict: newV2Dict(nil)}
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
	headed := false
	last := len(inputs) - 1
	for i, in := range inputs {
		if w.f == nil {
			if !in.plain() && (in.size >= st.opt.SegmentBytes || i == last) {
				tc.BytesAfter += in.size
				continue
			}
			if err := w.start(in.seq); err != nil {
				return tc, nil, err
			}
			headed = false
		}
		err := each(in, func(rec *Record, fileCols []string) error {
			if fileCols != nil {
				activeCols = fileCols
			}
			out := *rec
			der := sc.dv.cur
			head := !headed || !slices.Equal(writtenCols, activeCols) ||
				!slices.Equal(writtenEvents, rec.Events) || der != nil && !der.same(writtenDer)
			if head {
				headed, writtenCols, writtenEvents, writtenDer = true, activeCols, rec.Events, der
			}
			out.Cols = activeCols
			w.buf = appendData(beginFrame(w.buf[:0]), &out, w.dict, der, head)
			if err := w.writeFrame(); err != nil {
				return err
			}
			if rt := recTime(rec); w.n == 0 {
				w.first, w.last = rt, rt
			} else {
				w.last = rt
			}
			w.n++
			return nil
		})
		if err != nil {
			return tc, nil, err
		}
		w.b = in.seqEnd
		if w.size >= st.opt.SegmentBytes && i < last && (in.plain() || w.a != in.seq) {
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

// refCompact runs the reference rewrite of every tier Compact would
// rewrite, into dir, and returns its reports and every output file's
// bytes by name. The store is left as it was.
func refCompact(t *testing.T, st *Store, dir string) ([]TierCompaction, map[string][]byte) {
	t.Helper()
	var tcs []TierCompaction
	files := map[string][]byte{}
	st.mu.Lock()
	tiers := slices.Clone(st.tiers)
	sealed := make([][]*segment, len(tiers))
	for i, tr := range tiers {
		sealed[i] = slices.Clone(tr.sealed)
	}
	st.mu.Unlock()
	for i, tr := range tiers {
		inputs := sealed[i]
		plain := 0
		for _, sg := range inputs {
			if sg.plain() {
				plain++
			}
		}
		if plain == 0 && len(inputs) < 2 {
			continue
		}
		tc, outs, err := refCompactTier(st, tr, inputs, dir)
		if err != nil {
			t.Fatalf("reference compaction of tier %s: %v", tc.Tier, err)
		}
		tcs = append(tcs, tc)
		for _, o := range outs {
			b, err := os.ReadFile(o.path)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(o.path)] = b
		}
	}
	return tcs, files
}

// compactMatchesReference compacts st and holds the result to the
// reference rewrite of the same inputs: the same reports, the same
// output files, byte for byte.
func compactMatchesReference(t *testing.T, st *Store) {
	t.Helper()
	wantTiers, want := refCompact(t, st, t.TempDir())
	if len(want) == 0 {
		t.Fatal("the reference rewrote nothing: the case compacts nothing")
	}
	res, err := st.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Tiers, wantTiers) {
		t.Fatalf("Compact reports %+v, the reference %+v", res.Tiers, wantTiers)
	}
	var outs []string
	st.mu.Lock()
	for _, tr := range st.tiers {
		for _, sg := range tr.sealed {
			if _, ok := want[filepath.Base(sg.path)]; ok {
				outs = append(outs, sg.path)
			}
		}
	}
	st.mu.Unlock()
	if len(outs) != len(want) {
		t.Fatalf("the chain lists %d of the reference's %d outputs", len(outs), len(want))
	}
	for _, path := range outs {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if w := want[filepath.Base(path)]; !bytes.Equal(got, w) {
			t.Fatalf("%s: %d bytes, the reference %d; first difference at byte %d",
				filepath.Base(path), len(got), len(w), firstDiff(got, w))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// appendEach appends n refreshes at 1 s intervals from the store's last
// time, the i-th of them made by mk.
func appendEach(t *testing.T, st *Store, n int, mk func(now time.Duration, i int) *core.Sample) {
	t.Helper()
	start := st.LastTime() + time.Second
	for i := range n {
		if err := st.AppendSample(mk(start+time.Duration(i)*time.Second, i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestCompactMatchesReference: over stores of every shape a rewrite
// meets, Compact writes exactly the files the record-at-a-time reference
// writes — then again once more appends seal behind the compacted
// segments, so the second pass merges compacted inputs, whose tables
// order strings differently, with fresh ones.
func TestCompactMatchesReference(t *testing.T) {
	seed := uint64(5)
	varied := func(now time.Duration, _ int) *core.Sample { return variedSample(now, 8, &seed) }
	engine := func(now time.Duration, _ int) *core.Sample {
		return engineShaped(variedSample(now, 8, &seed), derivedScreen)
	}
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("cmd-%03d", i)
	}
	reopen := func(t *testing.T, st *Store, opt Options, v4 bool) *Store {
		t.Helper()
		cols := st.Columns()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if v4 {
			rewriteSegmentsV4(t, segmentFiles(t, st.Dir())...)
		}
		st = mustOpen(t, st.Dir(), opt)
		st.SetColumns(cols)
		return st
	}
	opt := Options{SegmentBytes: 8 << 10, SegmentAge: 40 * time.Second}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, st *Store) *Store
	}{
		{"engine-derived", func(t *testing.T, st *Store) *Store {
			appendEach(t, st, 300, engine)
			return st
		}},
		{"record-sample", func(t *testing.T, st *Store) *Store {
			st.SetColumns([]string{"branch-miss", "llc-load"})
			appendEach(t, st, 300, varied)
			return st
		}},
		{"derivation-lapses", func(t *testing.T, st *Store) *Store {
			// Engine and hand-built samples by turns within a segment (the
			// derivation stays in force, unused), and an engine sample one
			// row of which fails verification, so a derivable column is
			// stored.
			appendEach(t, st, 300, func(now time.Duration, i int) *core.Sample {
				s := engine(now, i)
				switch {
				case i%20 >= 10:
					s.Screen = nil
				case i%7 == 3:
					s.Rows[2].Values[1] = math.Nextafter(s.Rows[2].Values[1], math.Inf(1))
				}
				return s
			})
			return st
		}},
		{"column-change", func(t *testing.T, st *Store) *Store {
			appendEach(t, st, 100, engine)
			st.SetColumns([]string{"x", "y"})
			appendEach(t, st, 100, varied)
			st.SetColumns([]string{"c", "d"})
			appendEach(t, st, 100, engine)
			return st
		}},
		{"event-change", func(t *testing.T, st *Store) *Store {
			appendEach(t, st, 100, engine)
			appendEach(t, st, 100, func(now time.Duration, _ int) *core.Sample { return wideSample(now, 8, &seed) })
			appendEach(t, st, 100, engine)
			return st
		}},
		{"reopened-tail", func(t *testing.T, st *Store) *Store {
			appendEach(t, st, 150, engine)
			st = reopen(t, st, Options{SegmentBytes: 64 << 10, SegmentAge: 40 * time.Second}, false)
			appendEach(t, st, 150, engine)
			return st
		}},
		{"wide-dictionary", func(t *testing.T, st *Store) *Store {
			// 300 commands, met in an order that turns every 40 refreshes,
			// so every segment's table orders them its own way and indices
			// past 127 take two bytes.
			appendEach(t, st, 400, func(now time.Duration, i int) *core.Sample {
				off := (i / 40) * 97
				picked := make([]string, 8)
				for k := range picked {
					picked[k] = names[(off+i%40*8+k)%len(names)]
				}
				return namedSample(now, 8, picked...)
			})
			return st
		}},
		{"v4-written", func(t *testing.T, st *Store) *Store {
			appendEach(t, st, 300, engine)
			return reopen(t, st, opt, true)
		}},
		{"mixed-v4-v5", func(t *testing.T, st *Store) *Store {
			appendEach(t, st, 150, engine)
			if _, err := st.Compact(CompactOptions{}); err != nil {
				t.Fatal(err)
			}
			appendEach(t, st, 150, varied)
			st = reopen(t, st, Options{SegmentBytes: 64 << 10, SegmentAge: 40 * time.Second}, true)
			appendEach(t, st, 150, engine) // v5 frames behind the tail's v4 ones
			return st
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := mustOpen(t, t.TempDir(), opt)
			defer func() { st.Close() }()
			st.SetColumns([]string{"c", "d"})
			st = tc.build(t, st)
			compactMatchesReference(t, st)
			appendEach(t, st, 120, engine)
			compactMatchesReference(t, st)
		})
	}
}

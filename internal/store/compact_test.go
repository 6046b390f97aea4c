package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tiptop/internal/binenc"
	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// variedSample builds a refresh whose floats are full-precision walk
// values — compression-honest data, unlike sampleAt's constants, so
// ratio assertions mean something.
func variedSample(now time.Duration, tasks int, seed *uint64) *core.Sample {
	next := func() float64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return float64(*seed>>11) / float64(1<<53)
	}
	s := &core.Sample{Time: now}
	for i := 0; i < tasks; i++ {
		pid := 100 + i
		s.Rows = append(s.Rows, core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: pid, TID: pid},
				User: "user" + string(rune('a'+i%3)), Comm: "job-" + string(rune('a'+i%5)), State: "R",
			},
			CPUPct: 100 * next(),
			Values: []float64{1000 * next(), next()},
			Counts: []uint64{uint64(1e6 * next()), uint64(1e6 * next()), uint64(1e3 * next())},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses),
			Valid:  true,
		})
	}
	return s
}

func fillVaried(t *testing.T, st *Store, start, interval time.Duration, n, tasks int, seed *uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.AppendSample(variedSample(start+time.Duration(i)*interval, tasks, seed)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// snapshotQueries runs a spread of queries (all tiers, filters, ranges)
// and returns their marshaled results — the byte-identity oracle.
func snapshotQueries(t *testing.T, st *Store) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range []QueryOptions{
		{PID: -1},
		{PID: 102},
		{PID: -1, StepSeconds: 10},
		{PID: -1, StepSeconds: 60},
		{PID: -1, FromSeconds: 100, ToSeconds: 300},
		{PID: -1, StepSeconds: 30}, // re-bucketed from the 10s tier
	} {
		res, err := st.Query(q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func countFiles(t *testing.T, dir, pattern string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestCompactGoldenQueryIdentical is the golden test: compaction must
// leave every query's marshaled result byte-for-byte identical — before
// and after, and again after a close/reopen that recovers the compacted
// chain from disk. Over live v5 segments there is nothing left to
// shrink, only segments to merge, so it must not grow; over segments the
// previous build wrote as v4 it rewrites every frame as v5.
func TestCompactGoldenQueryIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		v4       bool
		minRatio int64
	}{
		{name: "v4-written", v4: true},
		{name: "v5-live", minRatio: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{SegmentBytes: 8 << 10}
			st := mustOpen(t, dir, opt)
			st.SetColumns([]string{"branch-miss", "llc-load"})
			seed := uint64(42)
			n := 400
			if testing.Short() {
				n = 120
			}
			fillVaried(t, st, 500*time.Millisecond, 1500*time.Millisecond, n, 8, &seed)
			pre := snapshotQueries(t, st)
			records := st.Records()
			if tc.v4 {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				rewriteSegmentsV4(t, segmentFiles(t, dir)...)
				st = mustOpen(t, dir, opt)
				for i, b := range snapshotQueries(t, st) {
					if !bytes.Equal(b, pre[i]) {
						t.Fatalf("query %d differs between the v5 and v4 renderings of the same appends", i)
					}
				}
			}

			res, err := st.Compact(CompactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tiers) == 0 {
				t.Fatal("nothing compacted")
			}
			var before, after int64
			for _, tc := range res.Tiers {
				before += tc.BytesBefore
				after += tc.BytesAfter
				if tc.Records == 0 {
					t.Fatalf("tier %s compacted zero records", tc.Tier)
				}
			}
			if tc.minRatio > 0 && after*tc.minRatio > before {
				t.Fatalf("compaction ratio %.2fx, want >= %dx (%d -> %d bytes)",
					float64(before)/float64(after), tc.minRatio, before, after)
			}
			if got := st.Records(); got != records {
				t.Fatalf("record count changed: %d -> %d", records, got)
			}
			for i, b := range snapshotQueries(t, st) {
				if !bytes.Equal(b, pre[i]) {
					t.Fatalf("query %d differs after compaction:\npre:  %s\npost: %s", i, pre[i], b)
				}
			}

			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = mustOpen(t, dir, opt)
			if got := st.Records(); got != records {
				t.Fatalf("record count after reopen: %d, want %d", got, records)
			}
			for i, b := range snapshotQueries(t, st) {
				if !bytes.Equal(b, pre[i]) {
					t.Fatalf("query %d differs after reopen", i)
				}
			}
			// The store stays appendable: compacted tails are sealed, so the
			// next append starts a fresh segment past the compacted range.
			fillVaried(t, st, 0, time.Second, 5, 8, &seed)
			if got := st.Records(); got <= records {
				t.Fatalf("appends after compaction not recorded (%d <= %d)", got, records)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// kinds counts a segment file's frames by what they hold: dictionary
// frames of either version, data frames by version, and the ones among
// them that leave columns out.
type kinds struct{ Dicts, V4, V5, Omitting int }

// segmentFiles lists every segment file of a closed store's directory.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, pattern := range []string{"*.seg", "*.cseg"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out
}

func frameKinds(t *testing.T, path string) (k kinds) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fr := newFrameReader(f)
	for {
		payload, ok, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return k
		}
		fr.accept()
		switch {
		case payload[1] == v2KindDict:
			k.Dicts++
		case payload[0] == recordVersionV4:
			k.V4++
		default:
			k.V5++
		}
		if payload[1] == v2KindData {
			r := binenc.NewReader(payload[2:])
			r.Uvarint() // time
			r.Uvarint() // res
			if r.Byte()&v4FlagOmit != 0 {
				k.Omitting++
			}
		}
	}
}

// TestMixedVersionTwin is the old-store test. Two stores take identical
// appends; one is turned mid-way into what the v4 build left behind —
// compacted .cseg segments plus .seg segments, the tail included, all in
// v4 frames — and must then open, append (v5 frames after the v4 ones in
// the tail file), query, compact and reopen with answers byte-identical
// to the twin that was v5 from the start.
func TestMixedVersionTwin(t *testing.T) {
	opt := Options{SegmentBytes: 4 << 10}
	mixed := mustOpen(t, t.TempDir(), opt)
	plain := mustOpen(t, t.TempDir(), opt)
	seedA, seedB := uint64(7), uint64(7)
	for _, st := range []*Store{mixed, plain} {
		st.SetColumns([]string{"c"})
	}
	fillVaried(t, mixed, time.Second, time.Second, 150, 4, &seedA)
	fillVaried(t, plain, time.Second, time.Second, 150, 4, &seedB)
	if _, err := mixed.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	fillVaried(t, mixed, 151*time.Second, time.Second, 150, 4, &seedA)
	fillVaried(t, plain, 151*time.Second, time.Second, 150, 4, &seedB)
	// Both restart (a restart drops the partial downsample buckets, so
	// the twin must take it too); only one wakes up with v4 segments.
	for _, st := range []*Store{mixed, plain} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rewriteSegmentsV4(t, segmentFiles(t, mixed.Dir())...)
	// Reopen with room, so the tail is the part-filled segment an old
	// build would have left and takes appends instead of rotating.
	opt.SegmentBytes = 16 << 10
	mixed = mustOpen(t, mixed.Dir(), opt)
	plain = mustOpen(t, plain.Dir(), opt)
	mixed.SetColumns([]string{"c"})
	plain.SetColumns([]string{"c"})
	if countFiles(t, mixed.Dir(), "*.cseg") == 0 || countFiles(t, mixed.Dir(), "*.seg") == 0 {
		t.Fatal("directory does not actually mix compacted and live segments")
	}
	tail := newestSegment(t, mixed.Dir(), "raw")
	if k := frameKinds(t, tail); k.V4 == 0 || k.V5 != 0 {
		t.Fatalf("old store's tail holds %+v frames; want v4 only", k)
	}
	want := snapshotQueries(t, plain)
	for i, b := range snapshotQueries(t, mixed) {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("query %d: old store differs from its v5 twin:\nv5:  %s\nold: %s", i, want[i], b)
		}
	}
	// A few appends land in the recovered v4 tail file, the rest seal it
	// and spill into fresh v5 segments.
	before := frameKinds(t, tail)
	fillVaried(t, mixed, time.Second, time.Second, 2, 4, &seedA)
	fillVaried(t, plain, time.Second, time.Second, 2, 4, &seedB)
	if k := frameKinds(t, tail); k.V4 != before.V4 || k.V5 != 2 || k.Dicts != before.Dicts+1 {
		t.Fatalf("recovered tail holds %+v frames (%+v before); want its v4 frames, then one dictionary and two v5 records", k, before)
	}
	fillVaried(t, mixed, 3*time.Second, time.Second, 98, 4, &seedA)
	fillVaried(t, plain, 3*time.Second, time.Second, 98, 4, &seedB)
	compare := func(when string) {
		t.Helper()
		want := snapshotQueries(t, plain)
		for i, b := range snapshotQueries(t, mixed) {
			if !bytes.Equal(b, want[i]) {
				t.Fatalf("query %d differs %s:\nv5:  %s\nold: %s", i, when, want[i], b)
			}
		}
	}
	compare("after appending to the old store")
	if _, err := mixed.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	compare("after compacting the old store")
	for _, st := range []*Store{mixed, plain} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mixed = mustOpen(t, mixed.Dir(), opt)
	plain = mustOpen(t, plain.Dir(), opt)
	compare("after mixed-version recovery")
	mixed.Close()
	plain.Close()
}

// writeRawFrame appends one CRC-framed payload to a segment file.
func writeRawFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := append(beginFrame(nil), payload...)
	endFrame(frame)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFutureVersionsRejectedLoudly: a frame from the future — binary
// v6 — must fail Open with a version error, not be clipped silently as
// corruption.
func TestFutureVersionsRejectedLoudly(t *testing.T) {
	dir := t.TempDir()
	writeRawFrame(t, filepath.Join(dir, "raw-0000000001.seg"), []byte{0x06, 0x01, 0x80, 0x08})
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "version 6") {
		t.Fatalf("Open = %v, want loud version-6 rejection", err)
	}
}

// TestCompactCrashRecovery replays the two interruptible windows of the
// publish protocol: an unpublished .cmpct must be discarded, and a
// published .cseg must supersede the input segments a crash left behind.
func TestCompactCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 4 << 10}
	st := mustOpen(t, dir, opt)
	st.SetColumns([]string{"c"})
	seed := uint64(3)
	fillVaried(t, st, time.Second, time.Second, 200, 4, &seed)

	// Stash the sealed raw segments so we can resurrect them later.
	rawSegs, err := filepath.Glob(filepath.Join(dir, "raw-*.seg"))
	if err != nil || len(rawSegs) < 2 {
		t.Fatalf("want several raw segments, have %v (%v)", rawSegs, err)
	}
	// The highest-sequence segment is the active one — no compaction
	// output covers it, so recovery rightly keeps it.
	tail := rawSegs[len(rawSegs)-1]
	stash := make(map[string][]byte)
	for _, p := range rawSegs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		stash[p] = b
	}
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	want := snapshotQueries(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window 4: inputs resurrected next to the published .cseg,
	// plus a half-written .cmpct from an unpublished rewrite.
	for p, b := range stash {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bogus := filepath.Join(dir, "raw-0000000099.cmpct")
	if err := os.WriteFile(bogus, []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, dir, opt)
	for i, b := range snapshotQueries(t, st) {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("query %d differs after crash recovery", i)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Fatal("unpublished .cmpct survived recovery")
	}
	for p := range stash {
		if p == tail {
			continue
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("superseded input %s survived recovery", filepath.Base(p))
		}
	}
}

// TestCompactRemerges: a second pass folds newly sealed segments into
// the existing compacted one, keeping the chain short across restarts.
func TestCompactRemerges(t *testing.T) {
	dir := t.TempDir()
	// Segments seal by age, well under the size target, so every pass
	// has small sealed segments to fold into one output.
	opt := Options{SegmentBytes: 64 << 10, SegmentAge: 40 * time.Second}
	st := mustOpen(t, dir, opt)
	seed := uint64(9)
	fillVaried(t, st, time.Second, time.Second, 100, 3, &seed)
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := countFiles(t, dir, "raw-*.cseg"); got != 1 {
		t.Fatalf("first pass left %d compacted segments, want 1", got)
	}
	// No-op second pass: one compacted segment and nothing else sealed.
	res, err := st.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiers) != 0 {
		t.Fatalf("idle compaction rewrote %v", res.Tiers)
	}
	// Two restarts, each sealing more segments behind the compacted one.
	for i := 0; i < 2; i++ {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = mustOpen(t, dir, opt)
		fillVaried(t, st, 0, time.Second, 50, 3, &seed)
	}
	pre := snapshotQueries(t, st)
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := countFiles(t, dir, "raw-*.cseg"); got != 1 {
		t.Fatalf("re-merge left %d compacted segments, want 1", got)
	}
	for i, b := range snapshotQueries(t, st) {
		if !bytes.Equal(b, pre[i]) {
			t.Fatalf("query %d differs after re-merge", i)
		}
	}
	st.Close()
}

// TestCompactConcurrentAppends: appends (and the queries they serve)
// proceed while a rewrite is in flight.
func TestCompactConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{SegmentBytes: 4 << 10})
	seed := uint64(11)
	fillVaried(t, st, time.Second, time.Second, 200, 4, &seed)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s2 := uint64(12)
		for i := 0; i < 100; i++ {
			_ = st.AppendSample(variedSample(time.Duration(201+i)*time.Second, 4, &s2))
		}
	}()
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(QueryOptions{PID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Machine) != 300 {
		t.Fatalf("store holds %d raw records, want 300", len(res.Machine))
	}
	st.Close()
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in   string
		want FsyncPolicy
		err  bool
	}{
		{in: "", want: FsyncPolicy{}},
		{in: "off", want: FsyncPolicy{}},
		{in: "2s", want: FsyncPolicy{Interval: 2 * time.Second}},
		{in: "500ms", want: FsyncPolicy{Interval: 500 * time.Millisecond}},
		{in: "100", want: FsyncPolicy{Records: 100}},
		{in: "100-records", want: FsyncPolicy{Records: 100}},
		{in: "1-record", want: FsyncPolicy{Records: 1}},
		{in: "2s,1000-records", want: FsyncPolicy{Interval: 2 * time.Second, Records: 1000}},
		{in: "0", err: true},
		{in: "-5", err: true},
		{in: "soon", err: true},
		{in: "2s,3s", err: true},
	}
	for _, c := range cases {
		got, err := ParseFsync(c.in)
		if c.err {
			if err == nil {
				t.Fatalf("ParseFsync(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("ParseFsync(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	if s := (FsyncPolicy{Interval: 2 * time.Second, Records: 1000}).String(); s != "2s,1000-records" {
		t.Fatalf("String() = %q", s)
	}
}

// TestFsyncPolicyAppends drives both policy shapes through appends,
// rotations and reopen — the data path must be unchanged.
func TestFsyncPolicyAppends(t *testing.T) {
	for name, p := range map[string]FsyncPolicy{
		"every-record": {Records: 1},
		"interval":     {Interval: time.Nanosecond},
		"both":         {Interval: time.Millisecond, Records: 10},
	} {
		dir := t.TempDir()
		st := mustOpen(t, dir, Options{SegmentBytes: 2 << 10, Fsync: p})
		fill(t, st, time.Second, time.Second, 100, 2)
		if err := st.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st = mustOpen(t, dir, Options{})
		res, err := st.Query(QueryOptions{PID: -1})
		if err != nil || len(res.Machine) != 100 {
			t.Fatalf("%s: recovered %d records (%v), want 100", name, len(res.Machine), err)
		}
		st.Close()
	}
}

// spoilFrame replaces a data frame in the middle of the segment file at
// path (in m), one that names no layout, with what spoil makes of its
// record: decoded under the file's table and the layout in force, encoded
// into a copy of that table. The frames are written back re-framed, so
// the spoiled one passes its checksum.
func spoilFrame(t *testing.T, m *memFS, path string, spoil func(rec *Record, d *v2Dict, der *derivation) []byte) {
	t.Helper()
	fr := newFrameReader(bytes.NewReader(m.files[path].data))
	var payloads [][]byte
	for {
		p, ok, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		fr.accept()
		payloads = append(payloads, bytes.Clone(p))
	}
	d := &refDecoder{}
	spoiled := false
	for i, p := range payloads {
		rec, err := d.decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil && i >= len(payloads)/2 && len(rec.Cols) == 0 {
			payloads[i] = spoil(rec, newV2Dict(slices.Clone(d.dict)), d.dv.cur)
			spoiled = true
			break
		}
	}
	if !spoiled {
		t.Fatalf("%s has no headerless record past its middle", path)
	}
	var out []byte
	for _, p := range payloads {
		frame := append(beginFrame(nil), p...)
		endFrame(frame)
		out = append(out, frame...)
	}
	m.files[path].data = out
}

// answers renders each of a spread of queries' results, or its error.
func answers(st *Store) []string {
	var out []string
	for _, q := range []QueryOptions{
		{PID: -1},
		{PID: -1, ToSeconds: 60},
		{PID: -1, StepSeconds: 10},
		{PID: -1, StepSeconds: 60},
	} {
		res, err := st.Query(q)
		if err != nil {
			out = append(out, "error: "+err.Error())
			continue
		}
		b, _ := json.Marshal(res)
		out = append(out, string(b))
	}
	return out
}

// TestCompactRefusesMalformedFrame: a sealed segment holding a data
// frame that passes its checksum but does not decode — a dictionary index
// past the table, trailing bytes, a wrong event count — fails Compact,
// which publishes nothing and keeps its inputs: the directory lists what
// it listed, every plain segment holds its bytes, and every query answers
// as it did. Over plain segments nothing at all changes; behind a
// full-size compacted segment, the pass has already published that one's
// rewrite over its own name (with a table grown by later names) when it
// meets the bad frame, and the store must read the rewrite whole.
func TestCompactRefusesMalformedFrame(t *testing.T) {
	spoilers := map[string]func(rec *Record, d *v2Dict, der *derivation) []byte{
		"dictionary index": func(rec *Record, d *v2Dict, der *derivation) []byte {
			rec.Rows[0].Command = "not-in-the-table"
			return appendData(nil, rec, d, der, false)
		},
		"trailing bytes": func(rec *Record, d *v2Dict, der *derivation) []byte {
			return append(appendData(nil, rec, d, der, false), 0)
		},
		"event count": func(rec *Record, d *v2Dict, der *derivation) []byte {
			rec.Events = rec.Events[:len(rec.Events)-1]
			return appendData(nil, rec, d, der, false)
		},
	}
	for _, behind := range []bool{false, true} {
		for name, spoil := range spoilers {
			t.Run(fmt.Sprintf("%s/behind-compacted=%v", name, behind), func(t *testing.T) {
				m := newMemFS()
				opt := Options{SegmentBytes: 8 << 10, SegmentAge: 40 * time.Second}
				st, err := open(m, fakeDir, opt)
				if err != nil {
					t.Fatal(err)
				}
				st.SetColumns([]string{"c", "d"})
				seed := uint64(3)
				engine := func(now time.Duration, _ int) *core.Sample {
					return engineShaped(variedSample(now, 8, &seed), derivedScreen)
				}
				appendEach(t, st, 150, engine)
				if behind {
					if _, err := st.Compact(CompactOptions{}); err != nil {
						t.Fatal(err)
					}
					appendEach(t, st, 150, func(now time.Duration, i int) *core.Sample {
						return engineShaped(namedSample(now, 8, fmt.Sprintf("late-%d", i%40)), derivedScreen)
					})
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				var plain []string
				for _, n := range m.listing(fakeDir) {
					if strings.HasPrefix(n, "raw-") && strings.HasSuffix(n, segmentExt) {
						plain = append(plain, n)
					}
				}
				if len(plain) < 2 {
					t.Fatalf("want a sealed raw segment behind the tail, have %v", plain)
				}
				spoilFrame(t, m, filepath.Join(fakeDir, plain[len(plain)-2]), spoil)
				if st, err = open(m, fakeDir, opt); err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				before, want := m.contents(fakeDir), answers(st)
				if _, err := st.Compact(CompactOptions{}); err == nil {
					t.Fatal("Compact rewrote a segment holding a malformed frame")
				}
				after := m.contents(fakeDir)
				if !slices.Equal(slices.Sorted(maps.Keys(after)), slices.Sorted(maps.Keys(before))) {
					t.Fatalf("the directory lists %v after the failed Compact, %v before", slices.Sorted(maps.Keys(after)), slices.Sorted(maps.Keys(before)))
				}
				for n, b := range before {
					if !bytes.Equal(after[n], b) && (!behind || strings.HasSuffix(n, segmentExt)) {
						t.Fatalf("the failed Compact changed %s", n)
					}
				}
				for i, a := range answers(st) {
					if a != want[i] {
						t.Fatalf("query %d answers differently after the failed Compact:\nbefore: %.300s\nafter:  %.300s", i, want[i], a)
					}
				}
			})
		}
	}
}

// TestCompactNeverRenamesOverTheChain: no output of a compaction is
// published under the name of a file the chain lists, so a query that
// snapshotted the chain before the swap reads every file it listed as it
// was. A second pass over full-size compacted segments, fresh ones
// behind them, is where an output would hold one compacted input alone.
func TestCompactNeverRenamesOverTheChain(t *testing.T) {
	m := newMemFS()
	st, err := open(m, fakeDir, Options{SegmentBytes: 8 << 10, SegmentAge: 40 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetColumns([]string{"c", "d"})
	seed := uint64(9)
	engine := func(now time.Duration, _ int) *core.Sample {
		return engineShaped(variedSample(now, 8, &seed), derivedScreen)
	}
	kept := 0
	for pass := range 3 {
		appendEach(t, st, 300, engine)
		before, want := m.listing(fakeDir), answers(st)
		m.renamed = nil
		if _, err := st.Compact(CompactOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, to := range m.renamed {
			if slices.Contains(before, filepath.Base(to)) {
				t.Fatalf("pass %d published %s over a file the chain listed", pass, filepath.Base(to))
			}
		}
		after := m.listing(fakeDir)
		for _, n := range before {
			if strings.HasSuffix(n, compactedExt) && slices.Contains(after, n) {
				kept++
			}
		}
		for i, a := range answers(st) {
			if a != want[i] {
				t.Fatalf("pass %d: query %d answers differently after Compact", pass, i)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no compacted segment was kept as it was: the case never meets one an output would hold alone")
	}
}

// historyStore builds history_query's shape of store in dir: n refreshes
// of 8 hand-built rows a second, raw segments sealed by age, and the
// store compacts every tier into one output.
func historyStore(tb testing.TB, dir string, n int, age time.Duration) {
	tb.Helper()
	st, err := Open(dir, Options{SegmentBytes: 64 << 20, SegmentAge: age, Budget: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	st.SetColumns([]string{"ipc", "miss"})
	seed := uint64(17)
	for i := range n {
		if err := st.AppendSample(variedSample(time.Duration(i+1)*time.Second, 8, &seed)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
}

// compactAllocs opens the store in dir and counts what one Compact of
// it allocates, returning that and the records it rewrote.
func compactAllocs(t *testing.T, dir string, age time.Duration) (allocs uint64, records int64) {
	t.Helper()
	st := mustOpen(t, dir, Options{SegmentBytes: 64 << 20, SegmentAge: age, Budget: 1 << 30})
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := st.Compact(CompactOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range res.Tiers {
		records += tc.Records
	}
	return after.Mallocs - before.Mallocs, records
}

// TestCompactAllocs: what a compaction pass allocates is per segment and
// per output, never per record. Two stores with about ten segments per
// tier, one holding four times the other's records, cost the same to
// compact within a few allocations a segment: under one allocation per
// 200 added records (≈386 and ≈398 allocations here).
func TestCompactAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 12,500 refreshes")
	}
	warm := t.TempDir()
	historyStore(t, warm, 600, time.Minute)
	compactAllocs(t, warm, time.Minute) // leases and grows the pooled walker
	var got [2]uint64
	var recs [2]int64
	for i, n := range []int{2500, 10000} {
		dir := t.TempDir()
		age := time.Duration(n/10) * time.Second // ten segments per tier
		historyStore(t, dir, n, age)
		got[i], recs[i] = compactAllocs(t, dir, age)
	}
	t.Logf("one Compact: %d allocations over %d records, %d over %d", got[0], recs[0], got[1], recs[1])
	if recs[1] < 4*recs[0]-100 {
		t.Fatalf("the larger store holds %d records, the smaller %d", recs[1], recs[0])
	}
	if 200*(got[1]-min(got[1], got[0])) > uint64(recs[1]-recs[0]) {
		t.Fatalf("compacting 4x the records takes %d allocations, against %d: the pass allocates per record", got[1], got[0])
	}
}

// BenchmarkCompact times one Compact of a store shaped like
// history_query's at its set-up compaction: 10,800 refreshes of 8 rows a
// second, raw segments sealed at ten minutes, its 10 s and 1 m tiers.
// Each iteration compacts a fresh copy of it; records/s counts every
// tier's records.
func BenchmarkCompact(b *testing.B) {
	src := b.TempDir()
	opt := Options{Budget: 1 << 30}
	st, err := Open(src, opt)
	if err != nil {
		b.Fatal(err)
	}
	st.SetColumns([]string{"ipc", "miss"})
	seed := uint64(17)
	for i := range 10800 {
		if err := st.AppendSample(variedSample(time.Duration(i+1)*time.Second, 8, &seed)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	var records int64
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		dir := b.TempDir()
		for _, e := range entries {
			if data, err := os.ReadFile(filepath.Join(src, e.Name())); err == nil {
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					b.Fatal(err)
				}
			}
		}
		st, err := Open(dir, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := st.Compact(CompactOptions{})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range res.Tiers {
			records += tc.Records
		}
		st.Close()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

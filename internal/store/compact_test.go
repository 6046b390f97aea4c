package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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
// chain from disk. Over segments an older build wrote as v1 JSON the
// rewrite must also shrink them >= 3x; over live v3 segments there is
// nothing left to shrink, only segments to merge, so it must not grow.
func TestCompactGoldenQueryIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		v1       bool
		minRatio int64
	}{
		{name: "v1-written", v1: true, minRatio: 3},
		{name: "v3-live", minRatio: 1},
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
			if tc.v1 {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				rewriteSegmentsV1(t, dir)
				st = mustOpen(t, dir, opt)
				for i, b := range snapshotQueries(t, st) {
					if !bytes.Equal(b, pre[i]) {
						t.Fatalf("query %d differs between the v3 and v1 renderings of the same appends", i)
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
			if after*tc.minRatio > before {
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

// kinds counts a segment file's frames by what they hold: v1 JSON
// records, dictionary frames of either binary version, and binary data
// frames by version.
type kinds struct{ V1, Dicts, V2, V3 int }

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
		case payload[0] == '{':
			k.V1++
		case payload[1] == v2KindDict:
			k.Dicts++
		case payload[0] == recordVersionV2:
			k.V2++
		default:
			k.V3++
		}
	}
}

// TestMixedVersionTwin is the old-store test. Two stores take identical
// appends; one is turned mid-way into what a build with the v1 live
// writer left behind — compacted .cseg segments plus v1 JSON .seg
// segments, the tail included — and must then open, append (v3 frames
// after the v1 ones in the tail file), query, compact and reopen with
// answers byte-identical to the twin that was v3 from the start.
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
	// the twin must take it too); only one wakes up with v1 segments.
	for _, st := range []*Store{mixed, plain} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rewriteSegmentsV1(t, mixed.Dir())
	// The v1 rendering of a full v3 segment is several times the segment
	// size; reopen with room, so the tail is the part-filled segment an
	// old build would have left and takes appends instead of rotating.
	opt.SegmentBytes = 16 << 10
	mixed = mustOpen(t, mixed.Dir(), opt)
	plain = mustOpen(t, plain.Dir(), opt)
	mixed.SetColumns([]string{"c"})
	plain.SetColumns([]string{"c"})
	if countFiles(t, mixed.Dir(), "*.cseg") == 0 || countFiles(t, mixed.Dir(), "*.seg") == 0 {
		t.Fatal("directory does not actually mix compacted and v1 segments")
	}
	tail := newestSegment(t, mixed.Dir(), "raw")
	if k := frameKinds(t, tail); k.V1 == 0 || k != (kinds{V1: k.V1}) {
		t.Fatalf("old store's tail holds %+v frames; want v1 only", k)
	}
	want := snapshotQueries(t, plain)
	for i, b := range snapshotQueries(t, mixed) {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("query %d: old store differs from its v3 twin:\nv3:  %s\nold: %s", i, want[i], b)
		}
	}
	// A few appends land in the recovered v1 tail file, the rest seal it
	// and spill into fresh v3 segments.
	fillVaried(t, mixed, time.Second, time.Second, 2, 4, &seedA)
	fillVaried(t, plain, time.Second, time.Second, 2, 4, &seedB)
	if k := frameKinds(t, tail); k.V1 == 0 || k != (kinds{V1: k.V1, Dicts: 1, V3: 2}) {
		t.Fatalf("recovered tail holds %+v frames; want v1 frames, then one dictionary and two v3 records", k)
	}
	fillVaried(t, mixed, 3*time.Second, time.Second, 98, 4, &seedA)
	fillVaried(t, plain, 3*time.Second, time.Second, 98, 4, &seedB)
	compare := func(when string) {
		t.Helper()
		want := snapshotQueries(t, plain)
		for i, b := range snapshotQueries(t, mixed) {
			if !bytes.Equal(b, want[i]) {
				t.Fatalf("query %d differs %s:\nv3:  %s\nold: %s", i, when, want[i], b)
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
// v4 or JSON {"v":4} — must fail Open with a version error, not be
// clipped silently as corruption.
func TestFutureVersionsRejectedLoudly(t *testing.T) {
	for name, payload := range map[string][]byte{
		"binary-v4": {0x04, 0x01, 0x80, 0x08},
		"json-v4":   []byte(`{"v":4,"time_s":1,"rows":[],"machine":{}}`),
	} {
		dir := t.TempDir()
		writeRawFrame(t, filepath.Join(dir, "raw-0000000001.seg"), payload)
		_, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "version 4") {
			t.Fatalf("%s: Open = %v, want loud version-4 rejection", name, err)
		}
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

// TestCompactTombstones: series that exited long before the newest
// record lose their rows; live series and the machine roll-up persist.
func TestCompactTombstones(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{SegmentBytes: 2 << 10, NoDownsample: true})
	// Task 100 and 200 both live until t=60; 200 exits, 100 runs on to
	// t=600.
	both := func(now time.Duration) *core.Sample {
		s := sampleAt(now, 1)
		s.Rows = append(s.Rows, core.Row{
			Info:   core.TaskInfo{ID: hpm.TaskID{PID: 200, TID: 200}, User: "u", Comm: "gone", State: "R"},
			CPUPct: 10, Values: []float64{1},
			Counts: []uint64{10, 5},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles),
			Valid:  true,
		})
		return s
	}
	for i := 1; i <= 60; i++ {
		if err := st.AppendSample(both(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 61; i <= 600; i++ {
		if err := st.AppendSample(sampleAt(time.Duration(i)*time.Second, 1)); err != nil {
			t.Fatal(err)
		}
	}
	records := st.Records()
	preMachine, err := st.Query(QueryOptions{PID: -1, FromSeconds: 1, ToSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}

	res, err := st.Compact(CompactOptions{TombstoneAge: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var tomb, dropped int
	for _, tc := range res.Tiers {
		tomb += tc.TombstonedSeries
		dropped += int(tc.DroppedRows)
	}
	if tomb != 1 || dropped == 0 {
		t.Fatalf("tombstoned %d series / %d rows, want 1 series and > 0 rows", tomb, dropped)
	}
	if got := st.Records(); got != records {
		t.Fatalf("tombstoning changed the record count: %d -> %d", records, got)
	}
	post, err := st.Query(QueryOptions{PID: -1, FromSeconds: 1, ToSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range post.Series {
		if s.PID == 200 {
			t.Fatal("exited series survived tombstoning")
		}
	}
	if len(post.Series) == 0 {
		t.Fatal("live series was dropped")
	}
	// The machine roll-up is an aggregate of what happened, not of what
	// is retained: it must be untouched.
	a, _ := json.Marshal(preMachine.Machine)
	b, _ := json.Marshal(post.Machine)
	if !bytes.Equal(a, b) {
		t.Fatalf("machine roll-up changed:\npre:  %s\npost: %s", a, b)
	}
	st.Close()
}

// TestCompactRemerges: a second pass folds newly sealed segments into
// the existing compacted one, keeping the chain short across restarts.
func TestCompactRemerges(t *testing.T) {
	dir := t.TempDir()
	// Segments seal by age, well under the size target, so every pass
	// has small sealed segments to fold into one output.
	opt := Options{SegmentBytes: 64 << 10, SegmentAge: 40 * time.Second, NoDownsample: true}
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

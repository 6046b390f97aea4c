package store

// Tests for the scan walker: inline and pooled, full and projected, it
// must reproduce the reference loop (refscan_test.go) record-for-record
// (including column-change annotations) over stores mixing v1 JSON and
// v4 columnar segments;
// projection must zero exactly the unreferenced fields and nothing
// else; invalid ranges must fail with typed errors; and scans must be
// race-free against concurrent appends and compaction.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tiptop/internal/binenc"
)

// scannedRec is one deep-copied, normalized scan emission (empty
// slices normalized to nil so fresh-decode and reused-scratch paths
// compare equal).
type scannedRec struct {
	Rec  Record
	Cols string
}

func copyScan(rec *Record, cols []string) scannedRec {
	out := scannedRec{Cols: strings.Join(cols, ",")}
	out.Rec = *rec
	out.Rec.block, out.Rec.counts = nil, nil // scratch storage, not content
	out.Rec.Machine.Counts = append([]uint64(nil), rec.Machine.Counts...)
	out.Rec.Cols = nil
	if len(rec.Cols) > 0 {
		out.Rec.Cols = append([]string(nil), rec.Cols...)
	}
	out.Rec.Rows = nil
	for i := range rec.Rows {
		r := rec.Rows[i]
		r.Values = append([]float64(nil), rec.Rows[i].Values...)
		r.Counts = append([]uint64(nil), rec.Rows[i].Counts...)
		out.Rec.Rows = append(out.Rec.Rows, r)
	}
	return out
}

func collectScan(t *testing.T, st *Store, opts ScanOptions) []scannedRec {
	t.Helper()
	var out []scannedRec
	if _, err := st.ScanWith(opts, func(rec *Record, cols []string) error {
		out = append(out, copyScan(rec, cols))
		return nil
	}); err != nil {
		t.Fatalf("ScanWith(%+v): %v", opts, err)
	}
	return out
}

// mixedStore builds a store whose segments span every layout a scan can
// meet: varied appends, a compaction pass (merged .cseg), all of it
// rewritten as the v4 frames the previous build left, then live v5
// appends — the first of them after the v4 frames of the recovered
// tail.
func mixedStore(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{SegmentBytes: 8 << 10})
	st.SetColumns([]string{"branch-miss", "llc-load"})
	seed := uint64(7)
	n := 240
	if testing.Short() {
		n = 80
	}
	fillVaried(t, st, 500*time.Millisecond, 1500*time.Millisecond, n, 6, &seed)
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	fillVaried(t, st, time.Duration(n)*1500*time.Millisecond+500*time.Millisecond,
		1500*time.Millisecond, n/2, 6, &seed)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteSegmentsV4(t, segmentFiles(t, dir)...)
	// Segment size raised so the v4 tail still has room for appends.
	st = mustOpen(t, dir, Options{SegmentBytes: 64 << 10})
	st.SetColumns([]string{"branch-miss", "llc-load"})
	fillVaried(t, st, 1500*time.Millisecond, 1500*time.Millisecond, n/2, 6, &seed)
	if k := frameKinds(t, newestSegment(t, dir, "raw")); k.V4 == 0 || k.Dicts == 0 || k.V5 == 0 {
		t.Fatalf("tail segment holds %+v frames; want v4, dictionary and v5 ones", k)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// everything is a projection that keeps every field mixedStore writes,
// so a projected scan must equal the reference outright.
func everything(q QueryOptions, workers int) ScanOptions {
	return ScanOptions{QueryOptions: q, Workers: workers, Project: true,
		Columns: []string{"branch-miss", "llc-load"}, NeedCPUPct: true}
}

// straddleStore builds a store whose pooled scans end batches at both
// bounds and mid-stream: ragged record widths (so a record outgrows the
// slabs its batch's first record sized), records wider than
// scanBatchRows, a screen change in the middle of a segment, and v4
// frames — whole segments of them, and a tail where v5 appends follow
// them.
func straddleStore(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{SegmentBytes: 32 << 10})
	seed := uint64(23)
	now := time.Duration(0)
	fill := func(n int, widths ...int) {
		for i := 0; i < n; i++ {
			now += 1500 * time.Millisecond
			if err := st.AppendSample(variedSample(now, widths[i%len(widths)], &seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ragged := []int{6, 9, 7, 8, 6, 9}
	st.SetColumns([]string{"branch-miss", "llc-load"})
	fill(100, ragged...)
	fill(1, scanBatchRows+1)
	fill(40, ragged...)
	st.SetColumns([]string{"llc-load", "branch-miss"})
	fill(40, ragged...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteSegmentsV4(t, segmentFiles(t, dir)...)
	st = mustOpen(t, dir, Options{SegmentBytes: 32 << 10})
	st.SetColumns([]string{"llc-load", "branch-miss"})
	fill(60, ragged...)
	fill(2, scanBatchRows+1)
	fill(80, ragged...)
	t.Cleanup(func() { st.Close() })
	return st
}

// TestScanParallelMatchesSerial: the one walker, inline (one worker) or
// pooled, full or projected, emits exactly the reference loop's
// sequence over every segment layout and wherever its batches end. An
// fn error in the middle of a batch ends the scan there, with every
// worker gone.
func TestScanParallelMatchesSerial(t *testing.T) {
	straddle := straddleStore(t)
	for _, st := range []*Store{mixedStore(t), straddle} {
		for _, q := range []QueryOptions{
			{PID: -1},
			{PID: -1, StepSeconds: 10},
			{PID: -1, StepSeconds: 60},
			{PID: -1, FromSeconds: 100, ToSeconds: 300},
			{PID: -1, FromSeconds: 77.7},
		} {
			ref := refScan(t, st, q)
			if len(ref) == 0 {
				t.Fatalf("query %+v scanned nothing", q)
			}
			for _, workers := range []int{1, 2, 4, 16} {
				for name, opts := range map[string]ScanOptions{
					"full":      {QueryOptions: q, Workers: workers},
					"projected": everything(q, workers),
				} {
					if got := collectScan(t, st, opts); !reflect.DeepEqual(ref, got) {
						t.Fatalf("query %+v: %d-worker %s scan differs from the reference (%d vs %d records)",
							q, workers, name, len(got), len(ref))
					}
				}
			}
		}
	}

	q := QueryOptions{PID: -1}
	ref := refScan(t, straddle, q)
	stop := errors.New("enough")
	const keep = 70 // inside the first file's second batch
	for _, workers := range []int{2, 4} {
		before := runtime.NumGoroutine()
		var got []scannedRec
		_, err := straddle.ScanWith(ScanOptions{QueryOptions: q, Workers: workers}, func(rec *Record, cols []string) error {
			if len(got) == keep {
				return stop
			}
			got = append(got, copyScan(rec, cols))
			return nil
		})
		if !errors.Is(err, stop) || !reflect.DeepEqual(got, ref[:keep]) {
			t.Fatalf("%d-worker scan stopped at record %d returned %v after %d records, want fn's error after the reference's first %d",
				workers, keep, err, len(got), keep)
		}
		// Workers call wg.Done on their way out, so the last may still be
		// unwinding when ScanWith returns.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d-worker scan stopped by fn left %d goroutines behind", workers, runtime.NumGoroutine()-before)
			}
		}
	}
}

// TestScanProjectedMatchesFull: every record of a projected scan must
// equal the reference's full decode with exactly the unreferenced
// fields zeroed — or, for v1 JSON frames (which fall back to a full
// decode), the full record unchanged. Both oracles are computed from
// the reference stream using the columns in force at each record.
func TestScanProjectedMatchesFull(t *testing.T) {
	st := mixedStore(t)
	q := QueryOptions{PID: -1, StepSeconds: 10}
	keepName := "llc-load"
	full := refScan(t, st, q)
	for _, workers := range []int{1, 4} {
		proj := collectScan(t, st, ScanOptions{
			QueryOptions: q, Workers: workers,
			Project: true, Columns: []string{keepName, "INSTRUCTIONS"}, NeedCPUPct: false,
		})
		if len(proj) != len(full) {
			t.Fatalf("%d-worker projected scan has %d records, the reference has %d",
				workers, len(proj), len(full))
		}
		zeroed := 0
		for i, s := range full {
			if reflect.DeepEqual(s, proj[i]) {
				continue // v1 frame: full-decode fallback
			}
			cols := strings.Split(s.Cols, ",")
			want := copyScan(&s.Rec, cols)
			for j := range want.Rec.Rows {
				r := &want.Rec.Rows[j]
				r.CPUPct = 0
				for k := range r.Values {
					if k >= len(cols) || cols[k] != keepName {
						r.Values[k] = 0
					}
				}
			}
			if !reflect.DeepEqual(want, proj[i]) {
				t.Fatalf("%d-worker projected record %d matches neither the full decode nor the zeroed projection", workers, i)
			}
			zeroed++
		}
		if zeroed == 0 {
			t.Fatal("no record took the projected binary decode path")
		}
		// The projection must have kept something real.
		kept := false
		for _, s := range proj {
			cols := strings.Split(s.Cols, ",")
			for _, r := range s.Rec.Rows {
				for k, v := range r.Values {
					if k < len(cols) && cols[k] == keepName && v != 0 {
						kept = true
					}
				}
			}
		}
		if !kept {
			t.Fatal("projected scan kept no values for the referenced column")
		}
	}
}

// TestScanAllocsPerRecord bounds a long, narrow stream: 24 000 records of
// six rows, where whatever a scan pays to start amortises to nothing. A
// projected scan in steady state — scratch records, batches, dictionaries
// and read buffers all recycled — costs at most one allocation per record
// amortised, inline and pooled alike. What remains is per file (open,
// column names) and, in the pool, the scratch the decode window holds in
// flight: at most 2×workers files of three 64-record batches each,
// whatever the range. The other shape — a few records thousands of rows
// wide, where start-up is the whole cost — is TestDecodeScratchReuse's
// here and TestDashboardQueryAllocs' in internal/query.
func TestScanAllocsPerRecord(t *testing.T) {
	const records = 24000
	st := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64 << 10})
	defer st.Close()
	st.SetColumns([]string{"branch-miss", "llc-load"})
	seed := uint64(11)
	fillVaried(t, st, time.Second, time.Second, records, 6, &seed)
	for _, workers := range []int{1, 4} {
		opts := ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: workers,
			Project: true, Columns: []string{"llc-load"}}
		var seen int
		allocs := testing.AllocsPerRun(3, func() {
			seen = 0
			if _, err := st.ScanWith(opts, func(*Record, []string) error { seen++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if seen != records {
			t.Fatalf("%d-worker scan saw %d records, want %d", workers, seen, records)
		}
		if allocs > records {
			t.Fatalf("%d-worker projected scan: %.0f allocations for %d records, want <= 1 per record", workers, allocs, records)
		}
		t.Logf("%d-worker projected scan: %.3f allocations per record", workers, allocs/records)
	}

	// The shape a dashboard asks: a few hundred to a few thousand 8-row
	// records over a handful of segments, where nothing amortises. A
	// pooled scan pays per file and per batch in flight — a batch's items,
	// its first record and its two slabs — so the same constant bounds a
	// range of 250 records and one of 2000.
	const dashboardScan = 250
	st = mustOpen(t, t.TempDir(), Options{SegmentBytes: 256 << 10})
	defer st.Close()
	st.SetColumns([]string{"branch-miss", "llc-load"})
	fillVaried(t, st, time.Second, time.Second, 2000, 8, &seed)
	edge := st.tiers[0].sealed[0].last.Seconds()
	for _, want := range []int{250, 2000} {
		q := QueryOptions{PID: -1}
		if want < 2000 {
			q.FromSeconds, q.ToSeconds = edge-124, edge+125 // across the first two segments
		}
		for _, workers := range []int{2, 4} {
			opts := ScanOptions{QueryOptions: q, Workers: workers, Project: true, Columns: []string{"llc-load"}}
			var seen int
			allocs := testing.AllocsPerRun(3, func() {
				seen = 0
				if _, err := st.ScanWith(opts, func(*Record, []string) error { seen++; return nil }); err != nil {
					t.Fatal(err)
				}
			})
			if seen != want {
				t.Fatalf("%d-worker dashboard scan saw %d records, want %d", workers, seen, want)
			}
			if allocs > dashboardScan {
				t.Errorf("%d-worker scan of %d records: %.0f allocations, want <= %d", workers, want, allocs, dashboardScan)
			} else {
				t.Logf("%d-worker scan of %d records: %.0f allocations", workers, want, allocs)
			}
		}
	}
}

// TestScanInFlightBoundedByRows: what a pooled scan holds decoded is
// bounded by rows, not records. Over 8 MiB segments of 2000-row records —
// a few hundred records a file — a full-range 4-worker scan allocates at
// most what its batches in flight can hold: per worker two files of two
// queued batches and one being filled, and four on the free list, plus
// the one being merged, each at most scanBatchRows rows or one record.
func TestScanInFlightBoundedByRows(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{SegmentBytes: 8 << 20})
	defer st.Close()
	st.SetColumns([]string{"branch-miss", "llc-load"})
	seed := uint64(29)
	fillVaried(t, st, time.Second, time.Second, 400, 2000, &seed)
	const workers = 4
	if files := len(st.tiers[0].sealed) + 1; files < workers {
		t.Fatalf("the store holds %d segments, want at least %d", files, workers)
	}
	rowBytes := reflect.TypeOf(RecordRow{}).Size() + 2*8 // two values a row
	bound := uint64(workers*(2*3+4)+1) * max(scanBatchRows, 2000) * uint64(rowBytes)
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seen := 0
		if _, err := st.ScanWith(ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: workers},
			func(*Record, []string) error { seen++; return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if seen != 400 {
			t.Fatalf("scanned %d records, want 400", seen)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got > bound {
			t.Fatalf("a 4-worker scan of 400 records of 2000 rows allocated %d bytes, want <= %d", got, bound)
		}
		t.Logf("a 4-worker scan of 400 records of 2000 rows allocated %.1f MB (bound %.1f MB)", float64(got)/1e6, float64(bound)/1e6)
	}
}

// scratchPayload encodes a record of the given row widths under columns
// a, b, c — every float distinct and non-zero, offset by base — against d.
func scratchPayload(d *v2Dict, base float64, widths ...int) []byte {
	rec := &Record{TimeSeconds: 1, Cols: []string{"a", "b", "c"}, Events: []string{"INSTRUCTIONS", "CYCLES"}}
	for i, w := range widths {
		r := RecordRow{PID: 100 + i, TID: 100 + i, User: "u", Command: "job",
			CPUPct: base + float64(i), Values: make([]float64, w), Counts: []uint64{uint64(i), uint64(2 * i)}}
		for k := range r.Values {
			r.Values[k] = base + float64(10*i+k+1)
		}
		rec.Rows = append(rec.Rows, r)
	}
	return appendData(nil, rec, d, nil, true)
}

// TestDecodeScratchReuse: one scratch record decoded wide, then narrow,
// then ragged, then wide again under a projection reads, each time, as a
// fresh decode of the same payload does — no value of an earlier record
// shows through an unreferenced or dropped slot — and its rows' Values
// are one block carved with full slice expressions: appending to row i
// cannot write row i+1, an empty row is non-nil, and the decode costs a
// fresh record a fixed few allocations and a reused one none, however
// many rows it has. Their Counts are the same: one block, carved.
func TestDecodeScratchReuse(t *testing.T) {
	d := newV2Dict(nil)
	wideRows := make([]int, 400)
	for i := range wideRows {
		wideRows[i] = 3
	}
	wide := scratchPayload(d, 1000, wideRows...)
	steps := []struct {
		name    string
		payload []byte
		proj    func() *projection
	}{
		{"wide", wide, func() *projection { return nil }},
		{"narrow", scratchPayload(d, 2000, 2, 2, 2, 2, 2), func() *projection { return nil }},
		{"ragged", scratchPayload(d, 3000, 0, 1, 2, 0, 0, 3, 1, 0), func() *projection { return nil }},
		{"projected", wide, func() *projection { return newProjection([]string{"b"}, false) }},
		{"empty", scratchPayload(d, 4000, 0, 0), func() *projection { return nil }},
	}
	scratch := &Record{}
	for _, step := range steps {
		fresh := &Record{}
		if err := decodeDataInto(fresh, step.payload, d.strs, step.proj(), &deriver{}); err != nil {
			t.Fatalf("%s: fresh decode: %v", step.name, err)
		}
		if err := decodeDataInto(scratch, step.payload, d.strs, step.proj(), &deriver{}); err != nil {
			t.Fatalf("%s: scratch decode: %v", step.name, err)
		}
		if !reflect.DeepEqual(copyScan(scratch, nil), copyScan(fresh, nil)) {
			t.Fatalf("%s: the reused scratch reads differently from a fresh decode", step.name)
		}
		if step.name == "projected" {
			if v := scratch.Rows[7].Values; v[0] != 0 || v[1] == 0 || v[2] != 0 || scratch.Rows[7].CPUPct != 0 {
				t.Fatalf("projected on b: row 7 reads %v (cpu %v), want only the middle slot kept", v, scratch.Rows[7].CPUPct)
			}
		}
		for i := range scratch.Rows {
			v, c := scratch.Rows[i].Values, scratch.Rows[i].Counts
			if v == nil || cap(v) != len(v) || cap(c) != len(c) || len(c) != 2 || c[1] != uint64(2*i) {
				t.Fatalf("%s: row %d's Values are nil or have room to grow (len %d, cap %d), or its Counts %v (cap %d) are not its own",
					step.name, i, len(v), cap(v), c, cap(c))
			}
		}
		for i := 0; i+1 < len(scratch.Rows); i++ {
			next := append([]float64(nil), scratch.Rows[i+1].Values...)
			_ = append(scratch.Rows[i].Values, -1)
			if !reflect.DeepEqual(next, append([]float64(nil), scratch.Rows[i+1].Values...)) {
				t.Fatalf("%s: appending to row %d's Values wrote row %d's", step.name, i, i+1)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := decodeDataInto(&Record{}, wide, d.strs, nil, &deriver{}); err != nil {
			t.Fatal(err)
		}
	}); allocs > 6 {
		t.Errorf("a fresh decode of %d rows made %.0f allocations, want <= 6 (the record, its rows, one values and one counts block, the column and event names read)", len(wideRows), allocs)
	}
	dv := &deriver{}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := decodeDataInto(scratch, wide, d.strs, nil, dv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a decode into scratch that has held the record made %.0f allocations, want 0", allocs)
	}
}

// TestDecodeRefusesClaimedValueCounts: the per-row value counts size the
// record's values block, so a payload that claims more values than it
// has bytes — in one row, summed over rows, or by wrapping the sum — is
// refused before anything is sized from them, in a v5 frame and in a v4
// one.
func TestDecodeRefusesClaimedValueCounts(t *testing.T) {
	dict := []string{"u", "job"}
	prefix := func(v byte) []byte {
		b := append([]byte(nil), v, v2KindData)
		b = binenc.AppendUvarint(b, 1000) // time
		b = binenc.AppendUvarint(b, 0)    // res
		b = append(b, 0)                  // no column names
		b = binenc.AppendUvarint(b, 2)    // rows
		b = binenc.AppendVarint(binenc.AppendVarint(b, 100), 1)
		b = binenc.AppendVarint(binenc.AppendVarint(b, 0), 0)
		b = binenc.AppendUvarint(binenc.AppendUvarint(b, 0), 0) // users
		b = binenc.AppendUvarint(binenc.AppendUvarint(b, 1), 1) // commands
		b = append(b, 0, 0)                                     // the CPU chain, all "same as previous"
		return b
	}
	for _, v := range []byte{recordVersionV4, RecordVersion} {
		for name, counts := range map[string][2]uint64{
			"one row":  {1 << 40, 0},
			"summed":   {40, 40},
			"wrapping": {5, 1<<64 - 3},
		} {
			p := binenc.AppendUvarint(binenc.AppendUvarint(prefix(v), counts[0]), counts[1])
			p = append(p, make([]byte, 24)...) // what would follow: zero control bytes and counters
			scratch := &Record{}
			if err := decodeDataInto(scratch, p, dict, nil, &deriver{}); err == nil {
				t.Errorf("v%d, %s: a %d-byte payload claiming %d + %d values decoded", v, name, len(p), counts[0], counts[1])
			}
			if cap(scratch.block) > len(p) {
				t.Errorf("v%d, %s: the refused payload sized a %d-value block", v, name, cap(scratch.block))
			}
		}
		// The same frame with honest counts decodes.
		p := binenc.AppendUvarint(binenc.AppendUvarint(prefix(v), 1), 0)
		if v == recordVersionV4 {
			p = append(p, make([]byte, 1+6+5)...) // one value, three counts a row, the roll-up
		} else {
			p = append(p, make([]byte, 1+1+2)...) // one value, no events, the roll-up
		}
		if err := decodeDataInto(&Record{}, p, dict, nil, &deriver{}); err != nil {
			t.Fatalf("the hand-built v%d frame does not decode with honest counts: %v", v, err)
		}
	}
}

// TestPooledScannerCarriesNothingOver: a scanner back from the free list
// starts every file clean. Two stores whose columns are the same names in
// opposite order are scanned back to back on one goroutine, projected on
// one name: the second scan keeps that name's position in its own layout,
// names its own columns and users, and equals its reference. The intern
// table is the one thing that does carry over, and it is bounded: past
// internMax entries it is cleared before the next file.
func TestPooledScannerCarriesNothingOver(t *testing.T) {
	build := func(cols []string, user string) *Store {
		st := mustOpen(t, t.TempDir(), Options{})
		t.Cleanup(func() { st.Close() })
		st.SetColumns(cols)
		seed := uint64(5)
		for i := 1; i <= 20; i++ {
			s := variedSample(time.Duration(i)*time.Second, 6, &seed)
			for j := range s.Rows {
				s.Rows[j].Info.User = user
			}
			if err := st.AppendSample(s); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	a, b := build([]string{"x", "y"}, "alice"), build([]string{"y", "x"}, "bob")
	q := QueryOptions{PID: -1}
	onY := ScanOptions{QueryOptions: q, Workers: 1, Project: true, Columns: []string{"y"}}
	for _, tc := range []struct {
		st   *Store
		cols string
		user string
		keep int
	}{{a, "x,y", "alice", 1}, {b, "y,x", "bob", 0}, {a, "x,y", "alice", 1}} {
		if got, want := collectScan(t, tc.st, ScanOptions{QueryOptions: q, Workers: 1}), refScan(t, tc.st, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("the full scan of %s's store differs from its reference", tc.user)
		}
		got := collectScan(t, tc.st, onY)
		if len(got) != 20 {
			t.Fatalf("scanned %d records of %s's store, want 20", len(got), tc.user)
		}
		for _, s := range got {
			if s.Cols != tc.cols {
				t.Fatalf("%s's store scans under columns %q, want %q", tc.user, s.Cols, tc.cols)
			}
			for _, r := range s.Rec.Rows {
				if r.User != tc.user || r.Values[tc.keep] == 0 || r.Values[1-tc.keep] != 0 {
					t.Fatalf("%s's store, projected on y: row reads user %q values %v", tc.user, r.User, r.Values)
				}
			}
		}
	}

	d := newV2Dict(nil)
	for i := 0; i <= internMax; i++ {
		d.intern(fmt.Sprint("command-", i))
	}
	frame := func(payload []byte) []byte {
		f := append(beginFrame(nil), payload...)
		endFrame(f)
		return f
	}
	big := frame(d.appendDictFrame(nil, 0))
	small := frame(newV2Dict([]string{"one", "two"}).appendDictFrame(nil, 0))
	sc := getScanner(nil, nil)
	defer sc.release()
	clear(sc.intern) // whatever the free list's last user left
	none := func() *Record { t.Fatal("a dictionary-only segment decoded a record"); return nil }
	for _, step := range []struct {
		seg  []byte
		want int
	}{{big, internMax + 1}, {small, 2}} {
		if err := sc.scan(bytes.NewReader(step.seg), 0, 1<<62, none, nil); err != nil {
			t.Fatal(err)
		}
		if len(sc.intern) != step.want || len(sc.dict) != step.want {
			t.Fatalf("after a %d-byte segment the scanner holds %d interned strings and a %d-entry dictionary, want %d",
				len(step.seg), len(sc.intern), len(sc.dict), step.want)
		}
	}
}

func TestScanRangeErrors(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	cases := []QueryOptions{
		{PID: -1, StepSeconds: -10},
		{PID: -1, FromSeconds: 100, ToSeconds: 50},
	}
	for _, q := range cases {
		_, err := st.Scan(q, func(*Record, []string) error { return nil })
		var re *RangeError
		if !errors.As(err, &re) {
			t.Fatalf("Scan(%+v) = %v, want *RangeError", q, err)
		}
		if re.Hint == "" {
			t.Fatalf("RangeError for %+v carries no hint", q)
		}
		if _, err := st.Query(q); !errors.As(err, &re) {
			t.Fatalf("Query(%+v) = %v, want *RangeError", q, err)
		}
	}
}

// TestScanConcurrentAppendCompact drives parallel queries against a
// store under concurrent appends and compaction — the -race exercise
// for the scan pool (segments retire mid-scan, the active segment
// grows underneath the snapshot).
func TestScanConcurrentAppendCompact(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{SegmentBytes: 4 << 10})
	st.SetColumns([]string{"c0", "c1"})
	seed := uint64(3)
	fillVaried(t, st, 500*time.Millisecond, 500*time.Millisecond, 120, 4, &seed)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		aseed := uint64(17)
		now := 200 * time.Second
		for i := 0; i < 400; i++ {
			now += 500 * time.Millisecond
			if err := st.AppendSample(variedSample(now, 4, &aseed)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := st.Compact(CompactOptions{}); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := st.Query(QueryOptions{PID: -1, StepSeconds: 10}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScannersSurviveGC: the walkers a query leases outlive collections
// between queries — a repeated scan allocates no more after two
// runtime.GC() calls than before them (beyond what the calls allocate
// themselves), inline or through the scan pool. A sync.Pool would have
// emptied by then (its victim cache lasts one cycle), and every scan
// would build its walkers again: read and frame buffers, an intern
// table. A daemon whose heap is small collects often.
func TestScannersSurviveGC(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{SegmentBytes: 16 << 10})
	defer st.Close()
	st.SetColumns([]string{"branch-miss", "llc-load"})
	seed := uint64(3)
	fillVaried(t, st, time.Second, time.Second, 400, 6, &seed)
	for _, workers := range []int{1, 4} {
		opts := ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: workers}
		scan := func() {
			if _, err := st.ScanWith(opts, func(*Record, []string) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		collect := func() {
			runtime.GC()
			runtime.GC()
		}
		before := testing.AllocsPerRun(5, scan)
		after := testing.AllocsPerRun(5, func() {
			collect()
			scan()
		}) - testing.AllocsPerRun(5, collect)
		if after > before {
			t.Errorf("%d-worker scan: %.0f allocations after two collections, %.0f without", workers, after, before)
		}
	}
}

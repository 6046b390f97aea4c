package store

// Tests for the scan walker: inline and pooled, full and projected, it
// must reproduce the reference loop (refscan_test.go) record-for-record
// (including column-change annotations) over stores mixing v1 JSON and
// v3 columnar segments;
// projection must zero exactly the unreferenced fields and nothing
// else; invalid ranges must fail with typed errors; and scans must be
// race-free against concurrent appends and compaction.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
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
	out.Rec.block = nil // scratch storage, not content
	out.Rec.Cols = nil
	if len(rec.Cols) > 0 {
		out.Rec.Cols = append([]string(nil), rec.Cols...)
	}
	out.Rec.Rows = nil
	for i := range rec.Rows {
		r := rec.Rows[i]
		r.Values = append([]float64(nil), rec.Rows[i].Values...)
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
// meet: varied appends, a compaction pass (merged v3 .cseg), more
// appends rewritten as the v1 JSON an older build's live writer left,
// then live v3 appends — the first of them after the v1 frames of the
// recovered tail.
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
	rewriteSegmentsV1(t, dir)
	// Segment size raised so the v1 tail still has room for appends.
	st = mustOpen(t, dir, Options{SegmentBytes: 64 << 10})
	st.SetColumns([]string{"branch-miss", "llc-load"})
	fillVaried(t, st, 1500*time.Millisecond, 1500*time.Millisecond, n/2, 6, &seed)
	if k := frameKinds(t, newestSegment(t, dir, "raw")); k.V1 == 0 || k.Dicts == 0 || k.V3 == 0 {
		t.Fatalf("tail segment holds %+v frames; want v1, dictionary and v3 ones", k)
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

// TestScanParallelMatchesSerial: the one walker, inline (one worker) or
// pooled, full or projected, emits exactly the reference loop's
// sequence over every segment layout.
func TestScanParallelMatchesSerial(t *testing.T) {
	st := mixedStore(t)
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
	st := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64 << 10, NoDownsample: true})
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
}

// scratchPayload encodes a record of the given row widths under columns
// a, b, c — every float distinct and non-zero, offset by base — against d.
func scratchPayload(d *v2Dict, base float64, widths ...int) []byte {
	rec := &Record{TimeSeconds: 1, Cols: []string{"a", "b", "c"}}
	for i, w := range widths {
		r := RecordRow{PID: 100 + i, TID: 100 + i, User: "u", Command: "job",
			CPUPct: base + float64(i), Values: make([]float64, w), Instr: uint64(i)}
		for k := range r.Values {
			r.Values[k] = base + float64(10*i+k+1)
		}
		rec.Rows = append(rec.Rows, r)
	}
	return appendData(nil, rec, d)
}

// TestDecodeScratchReuse: one scratch record decoded wide, then narrow,
// then ragged, then wide again under a projection reads, each time, as a
// fresh decode of the same payload does — no value of an earlier record
// shows through an unreferenced or dropped slot — and its rows' Values
// are one block carved with full slice expressions: appending to row i
// cannot write row i+1, an empty row is non-nil, and the decode costs a
// fresh record a fixed few allocations and a reused one none, however
// many rows it has.
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
		if err := decodeDataInto(fresh, step.payload, d.strs, step.proj()); err != nil {
			t.Fatalf("%s: fresh decode: %v", step.name, err)
		}
		if err := decodeDataInto(scratch, step.payload, d.strs, step.proj()); err != nil {
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
			v := scratch.Rows[i].Values
			if v == nil || cap(v) != len(v) {
				t.Fatalf("%s: row %d's Values are nil or have room to grow (len %d, cap %d)", step.name, i, len(v), cap(v))
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
		if err := decodeDataInto(&Record{}, wide, d.strs, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 6 {
		t.Errorf("a fresh decode of %d rows made %.0f allocations, want <= 6 (the record, its rows, one values block, three column names appended)", len(wideRows), allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := decodeDataInto(scratch, wide, d.strs, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a decode into scratch that has held the record made %.0f allocations, want 0", allocs)
	}
}

// TestDecodeRefusesClaimedValueCounts: the per-row value counts size the
// record's values block, so a payload that claims more values than it
// has bytes — in one row, summed over rows, or by wrapping the sum — is
// refused before anything is sized from them, in a v3 frame and in a v2
// one (whose IPC chain the decode steps over).
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
		if v == recordVersionV2 {
			b = append(b, 0, 0) // and the IPC chain
		}
		return b
	}
	for _, v := range []byte{recordVersionV2, RecordVersion} {
		for name, counts := range map[string][2]uint64{
			"one row":  {1 << 40, 0},
			"summed":   {40, 40},
			"wrapping": {5, 1<<64 - 3},
		} {
			p := binenc.AppendUvarint(binenc.AppendUvarint(prefix(v), counts[0]), counts[1])
			p = append(p, make([]byte, 24)...) // what would follow: zero control bytes and counters
			scratch := &Record{}
			if err := decodeDataInto(scratch, p, dict, nil); err == nil {
				t.Errorf("v%d, %s: a %d-byte payload claiming %d + %d values decoded", v, name, len(p), counts[0], counts[1])
			}
			if cap(scratch.block) > len(p) {
				t.Errorf("v%d, %s: the refused payload sized a %d-value block", v, name, cap(scratch.block))
			}
		}
		// The same frame with honest counts decodes.
		p := binenc.AppendUvarint(binenc.AppendUvarint(prefix(v), 1), 0)
		p = append(p, make([]byte, 1+6+5)...) // one value, three counters a row, the roll-up
		if err := decodeDataInto(&Record{}, p, dict, nil); err != nil {
			t.Fatalf("the hand-built v%d frame does not decode with honest counts: %v", v, err)
		}
	}
}

// TestPooledScannerCarriesNothingOver: a scanner back from the pool
// starts every file clean. Two stores whose columns are the same names in
// opposite order are scanned back to back on one goroutine, projected on
// one name: the second scan keeps that name's position in its own layout,
// names its own columns and users, and equals its reference. The intern
// table is the one thing that does carry over, and it is bounded: past
// internMax entries it is cleared before the next file.
func TestPooledScannerCarriesNothingOver(t *testing.T) {
	build := func(cols []string, user string) *Store {
		st := mustOpen(t, t.TempDir(), Options{NoDownsample: true})
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
	clear(sc.intern) // whatever the pool's last user left
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

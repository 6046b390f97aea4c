package store

// Tests for the scan walker: inline and pooled, full and projected, it
// must reproduce the reference loop (refscan_test.go) record-for-record
// (including column-change annotations) over stores mixing v1 JSON and
// v2 columnar segments;
// projection must zero exactly the unreferenced fields and nothing
// else; invalid ranges must fail with typed errors; and scans must be
// race-free against concurrent appends and compaction.

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
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
// meet: varied appends, a compaction pass (merged v2 .cseg), more
// appends rewritten as the v1 JSON an older build's live writer left,
// then live v2 appends — the first of them after the v1 frames of the
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
	if v1, dicts, v2 := frameKinds(t, newestSegment(t, dir, "raw")); v1 == 0 || dicts == 0 || v2 == 0 {
		t.Fatalf("tail segment holds %d v1, %d dictionary, %d v2 frames; want all three", v1, dicts, v2)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// everything is a projection that keeps every field mixedStore writes,
// so a projected scan must equal the reference outright.
func everything(q QueryOptions, workers int) ScanOptions {
	return ScanOptions{QueryOptions: q, Workers: workers, Project: true,
		Columns: []string{"branch-miss", "llc-load"}, NeedCPUPct: true, NeedIPC: true}
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
				r.CPUPct, r.IPC = 0, 0
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
			t.Fatal("no record took the projected v2 decode path")
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

// TestScanAllocsPerRecord: a projected scan in steady state — scratch
// records, batches, dictionaries and read buffers all recycled — costs
// at most one allocation per record amortised, inline and pooled alike.
// What remains is per file (open, dictionary strings, column names) and,
// in the pool, the scratch the decode window holds in flight: at most
// 2×workers files of three 64-record batches each, whatever the range.
func TestScanAllocsPerRecord(t *testing.T) {
	const records = 24000
	st := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64 << 10, NoDownsample: true})
	defer st.Close()
	st.SetColumns([]string{"branch-miss", "llc-load"})
	seed := uint64(11)
	fillVaried(t, st, time.Second, time.Second, records, 6, &seed)
	for _, workers := range []int{1, 4} {
		opts := ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: workers,
			Project: true, Columns: []string{"llc-load"}, NeedIPC: true}
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

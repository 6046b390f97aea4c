package store

// Tests for the live append path: the per-segment dictionary must
// survive a restart (resumed from the tail's dictionary frames, never
// re-emitted, extended only by strings the file has not seen), and a
// crash anywhere inside a dictionary+data pair must cost at most the
// record being written. The old-store cases — a v1 JSON or v2 tail
// taking v3 frames after its own — are TestMixedVersionTwin's and
// TestVersionContractAcrossFormats'.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"tiptop/internal/core"
)

// namedSample is sampleAt with each task's user and command replaced by
// the given names (task i gets names[i%len]).
func namedSample(now time.Duration, tasks int, names ...string) *core.Sample {
	s := sampleAt(now, tasks)
	for i := range s.Rows {
		s.Rows[i].Info.User = "u-" + names[i%len(names)]
		s.Rows[i].Info.Comm = names[i%len(names)]
	}
	return s
}

func TestTailRecoveryResumesDictionary(t *testing.T) {
	opt := Options{SegmentBytes: 2 << 10, NoDownsample: true}
	dir := t.TempDir()
	st := mustOpen(t, dir, opt)
	twin := mustOpen(t, t.TempDir(), opt) // same appends, never restarted
	appendBoth := func(restarted, unbroken *core.Sample) {
		t.Helper()
		if err := st.AppendSample(restarted); err != nil {
			t.Fatal(err)
		}
		if err := twin.AppendSample(unbroken); err != nil {
			t.Fatal(err)
		}
	}
	st.SetColumns([]string{"v"})
	twin.SetColumns([]string{"v"})
	for i := 1; i <= 40; i++ {
		s := namedSample(time.Duration(i)*time.Second, 3, "alpha", "beta")
		appendBoth(s, s)
	}
	tail := newestSegment(t, dir, "raw")
	k := frameKinds(t, tail)
	dictsBefore, recsBefore := k.Dicts, k.V3
	if dictsBefore != 1 || recsBefore == 0 {
		t.Fatalf("tail holds %d dictionary frames and %d records before the restart; want 1 and some", dictsBefore, recsBefore)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = mustOpen(t, dir, opt)
	st.SetColumns([]string{"v"})

	// The restarted store's sample clock starts over; its store clock
	// carries on from t=40.
	appendBoth(namedSample(time.Second, 3, "alpha", "beta"), namedSample(41*time.Second, 3, "alpha", "beta"))
	if k := frameKinds(t, tail); k.Dicts != dictsBefore || k.V3 != recsBefore+1 {
		t.Fatalf("reusing known strings after the restart left %d dictionary frames, %d records; want %d, %d",
			k.Dicts, k.V3, dictsBefore, recsBefore+1)
	}
	appendBoth(namedSample(2*time.Second, 3, "alpha", "gamma"), namedSample(42*time.Second, 3, "alpha", "gamma"))
	if k := frameKinds(t, tail); k.Dicts != dictsBefore+1 || k.V3 != recsBefore+2 {
		t.Fatalf("a new string after the restart left %d dictionary frames, %d records; want %d, %d",
			k.Dicts, k.V3, dictsBefore+1, recsBefore+2)
	}
	for i := 3; i <= 40; i++ {
		appendBoth(namedSample(time.Duration(i)*time.Second, 3, "gamma", "beta", "delta"),
			namedSample(time.Duration(40+i)*time.Second, 3, "gamma", "beta", "delta"))
	}

	// Across the seam: the reference full decode, the walker (inline and
	// pooled, full and projected) and the never-restarted twin all agree.
	serial := refScan(t, st, QueryOptions{PID: -1})
	if len(serial) != 80 {
		t.Fatalf("reference scan saw %d records, want 80", len(serial))
	}
	all := ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: 4,
		Project: true, Columns: []string{"v"}, NeedCPUPct: true}
	for _, workers := range []int{1, 4} {
		full := ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: workers}
		proj := all
		proj.Workers = workers
		for name, opts := range map[string]ScanOptions{"full": full, "projected": proj} {
			if got := collectScan(t, st, opts); !reflect.DeepEqual(serial, got) {
				t.Fatalf("%d-worker %s scan differs from the reference full decode across the restart seam", workers, name)
			}
		}
	}
	// The twin differs in one legitimate way: SetColumns after the
	// restart re-announces the columns mid-segment.
	unbroken := collectScan(t, twin, all)
	for _, recs := range [][]scannedRec{serial, unbroken} {
		for i := range recs {
			recs[i].Rec.Cols = nil
		}
	}
	if !reflect.DeepEqual(serial, unbroken) {
		t.Fatal("restarted store scans differently from its never-restarted twin")
	}
	got, err := st.Query(QueryOptions{PID: -1, FromSeconds: 35, ToSeconds: 50})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Query(QueryOptions{PID: -1, FromSeconds: 35, ToSeconds: 50})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("query across the seam differs from the twin:\nrestarted: %s\ntwin:      %s", a, b)
	}
	st.Close()
	twin.Close()
}

// TestTornPairEveryOffset crashes the store at every byte inside the
// last dictionary+data pair of the active segment: reopening must keep
// every acknowledged record before it, lose at most the torn one, and
// leave a tail that takes appends and scans clean — including when the
// clip strands the pair's dictionary frame without its record.
func TestTornPairEveryOffset(t *testing.T) {
	opt := Options{NoDownsample: true}
	src := t.TempDir()
	st := mustOpen(t, src, opt)
	st.SetColumns([]string{"v"})
	const acked = 6
	for i := 1; i < acked; i++ {
		if err := st.AppendSample(namedSample(time.Duration(i)*time.Second, 2, "alpha")); err != nil {
			t.Fatal(err)
		}
	}
	seg := newestSegment(t, src, "raw")
	pairStart := st.DiskUsage()
	// The last acknowledged record brings a new name: dictionary + data.
	if err := st.AppendSample(namedSample(acked*time.Second, 2, "alpha", "late")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if k := frameKinds(t, seg); k.Dicts != 2 || k.V3 != acked {
		t.Fatalf("fixture holds %d dictionary frames, %d records; want 2, %d", k.Dicts, k.V3, acked)
	}
	for cut := pairStart; cut <= int64(len(whole)); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, filepath.Base(seg))
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := mustOpen(t, dir, opt)
		want := int64(acked - 1)
		if cut == int64(len(whole)) {
			want = acked // not torn at all
		}
		if got := st.Records(); got != want {
			t.Fatalf("cut at %d of %d: recovered %d records, want %d", cut, len(whole), got, want)
		}
		st.SetColumns([]string{"v"})
		// Appends reuse the torn pair's new name and bring another.
		if err := st.AppendSample(namedSample(time.Second, 3, "late", "alpha", "later")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = mustOpen(t, dir, opt)
		if got := st.Records(); got != want+1 {
			t.Fatalf("cut at %d: %d records after recover-append-recover, want %d", cut, got, want+1)
		}
		recs := collectScan(t, st, ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: 1})
		if int64(len(recs)) != want+1 {
			t.Fatalf("cut at %d: scan saw %d records, want %d", cut, len(recs), want+1)
		}
		last := recs[len(recs)-1].Rec.Rows
		if len(last) != 3 || last[0].Command != "late" || last[1].User != "u-alpha" || last[2].Command != "later" {
			t.Fatalf("cut at %d: record appended after recovery decodes as %+v", cut, last)
		}
		if recs[0].Cols != "v" || recs[0].Rec.Rows[0].Command != "alpha" {
			t.Fatalf("cut at %d: first record decodes as %+v under columns %q", cut, recs[0].Rec.Rows, recs[0].Cols)
		}
		st.Close()
	}
}

// TestResumedDictionaryIsOwned: the table a reopened tail resumes
// interning against is its own, not the recovery scanner's. The scanner
// goes back to the pool, and the next walk that leases it folds another
// file's dictionary into the same slice; a tail sharing that slice would
// have its table rewritten under the live writer. The scanner is driven
// directly rather than through Open, so the walk that follows is sure
// to reuse it (a pool may drop what it holds).
func TestResumedDictionaryIsOwned(t *testing.T) {
	write := func(names ...string) string {
		t.Helper()
		dir := t.TempDir()
		st := mustOpen(t, dir, Options{NoDownsample: true})
		st.SetColumns([]string{"v"})
		for i := 1; i <= 3; i++ {
			if err := st.AppendSample(namedSample(time.Duration(i)*time.Second, len(names), names...)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return newestSegment(t, dir, "raw")
	}
	tail, other := write("alpha", "beta"), write("gamma", "delta", "epsilon")

	sc := getScanner(osFS{}, nil)
	defer sc.release()
	sg, err := openSegment(sc, tail, 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.seal()
	want := slices.Clone(sg.dict.strs)
	if len(want) == 0 {
		t.Fatal("the tail resumed an empty table")
	}

	f, err := os.Open(other)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc.begin(f)
	for {
		payload, _, err := sc.frame()
		if err != nil {
			t.Fatal(err)
		}
		if payload == nil {
			break
		}
	}
	if !slices.Equal(sg.dict.strs, want) {
		t.Fatalf("walking another segment rewrote the resumed table: %q, want %q", sg.dict.strs, want)
	}
}

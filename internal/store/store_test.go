package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// sampleAt builds one engine refresh with `tasks` synthetic tasks at
// time now. Per task: instr = 1000·pid, cycles = 500·pid (IPC 2),
// misses = pid, one value column holding the pid.
func sampleAt(now time.Duration, tasks int) *core.Sample {
	s := &core.Sample{Time: now}
	for i := 0; i < tasks; i++ {
		pid := 100 + i
		s.Rows = append(s.Rows, core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: pid, TID: pid},
				User: "u", Comm: "job", State: "R",
			},
			CPUPct: 50,
			Values: []float64{float64(pid)},
			Counts: []uint64{uint64(1000 * pid), uint64(500 * pid), uint64(pid)},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses),
			Valid:  true,
		})
	}
	return s
}

// fill appends n refreshes at the given cadence starting at start.
func fill(t *testing.T, st *Store, start, interval time.Duration, n, tasks int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.AppendSample(sampleAt(start+time.Duration(i)*interval, tasks)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	st.SetColumns([]string{"ipc"})
	fill(t, st, 2*time.Second, 2*time.Second, 15, 3) // t = 2..30s

	res, err := st.Query(QueryOptions{PID: 101, FromSeconds: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolutionSeconds != 0 {
		t.Fatalf("raw query served from resolution %g", res.ResolutionSeconds)
	}
	if len(res.Series) != 1 {
		t.Fatalf("pid filter returned %d series", len(res.Series))
	}
	s := res.Series[0]
	if s.PID != 101 || s.User != "u" || s.Command != "job" {
		t.Fatalf("series identity = %+v", s)
	}
	if len(s.Points) != 15 {
		t.Fatalf("got %d points, want 15", len(s.Points))
	}
	p := s.Points[0]
	if p.TimeSeconds != 2 || p.IPC != 2 || p.CPUPct != 50 || len(p.Values) != 1 || p.Values[0] != 101 {
		t.Fatalf("first point = %+v", p)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "ipc" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Machine) != 15 {
		t.Fatalf("machine roll-up has %d points, want 15", len(res.Machine))
	}

	// Sub-range: [10, 20] inclusive has the points at 10..20.
	res, err = st.Query(QueryOptions{PID: -1, FromSeconds: 10, ToSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("all-task query returned %d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 6 {
			t.Fatalf("pid %d: %d points in [10,20], want 6", s.PID, len(s.Points))
		}
		if s.Points[0].TimeSeconds != 10 || s.Points[5].TimeSeconds != 20 {
			t.Fatalf("range endpoints wrong: %v .. %v", s.Points[0], s.Points[5])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDownsampleTiers(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	st.SetColumns([]string{"v"})
	// 2-second cadence to t=134: the 10s tier sees buckets (0,10] ..
	// (120,130] complete, the 1m tier sees (0,60] and (60,120] (a
	// bucket flushes when finer-tier data beyond its end arrives).
	fill(t, st, 2*time.Second, 2*time.Second, 67, 2) // t = 2..134s

	res, err := st.Query(QueryOptions{PID: 100, StepSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolutionSeconds != 10 {
		t.Fatalf("step 10 served from resolution %g", res.ResolutionSeconds)
	}
	pts := res.Series[0].Points
	if len(pts) != 13 {
		t.Fatalf("10s tier has %d points, want 13", len(pts))
	}
	// Bucket (0,10] held refreshes at 2..10; stamped with end time 10,
	// averages preserved, IPC recomputed from summed counters.
	if pts[0].TimeSeconds != 10 || pts[0].CPUPct != 50 || pts[0].IPC != 2 || pts[0].Values[0] != 100 {
		t.Fatalf("first 10s bucket = %+v", pts[0])
	}

	res, err = st.Query(QueryOptions{PID: 100, StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolutionSeconds != 60 {
		t.Fatalf("step 60 served from resolution %g", res.ResolutionSeconds)
	}
	pts = res.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("1m tier has %d points, want 2", len(pts))
	}
	if pts[0].TimeSeconds != 60 || pts[1].TimeSeconds != 120 {
		t.Fatalf("1m bucket times = %g, %g", pts[0].TimeSeconds, pts[1].TimeSeconds)
	}
	if pts[0].IPC != 2 || pts[0].Values[0] != 100 {
		t.Fatalf("1m bucket = %+v", pts[0])
	}

	// A step between tiers re-buckets the finer tier's points.
	res, err = st.Query(QueryOptions{PID: 100, StepSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolutionSeconds != 10 || res.StepSeconds != 30 {
		t.Fatalf("step 30: resolution %g step %g", res.ResolutionSeconds, res.StepSeconds)
	}
	pts = res.Series[0].Points
	if len(pts) != 5 { // 10s points at 10..130 → (0,30] (30,60] ... (120,150]
		t.Fatalf("step-30 re-bucketing has %d points, want 5", len(pts))
	}
	if pts[0].TimeSeconds != 30 || pts[0].IPC != 2 {
		t.Fatalf("step-30 first bucket = %+v", pts[0])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTruncatedTail is the crash-safety acceptance test:
// a record torn mid-write must be clipped on open and everything before
// it must survive and stay queryable.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{NoDownsample: true})
	st.SetColumns([]string{"v"})
	fill(t, st, time.Second, time.Second, 20, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail record: chop 3 bytes off the newest raw segment.
	seg := newestSegment(t, dir, "raw")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, dir, Options{NoDownsample: true})
	if got := st.Records(); got != 19 {
		t.Fatalf("recovered %d records, want 19 after clipping the torn tail", got)
	}
	res, err := st.Query(QueryOptions{PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series[0].Points) != 19 {
		t.Fatalf("query sees %d points, want 19", len(res.Series[0].Points))
	}
	last := res.Series[0].Points[18]
	if last.TimeSeconds != 19 {
		t.Fatalf("last surviving point at t=%g, want 19", last.TimeSeconds)
	}

	// The clip must be physical: appending must produce a parseable
	// chain, and reopening again must see old + new records.
	fill(t, st, time.Second, time.Second, 5, 2) // store clock continues past 19
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = mustOpen(t, dir, Options{NoDownsample: true})
	if got := st.Records(); got != 24 {
		t.Fatalf("after restart-append-restart: %d records, want 24", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryGarbageTail appends what no crash-free writer leaves to
// an intact tail — bytes that frame nothing, and a frame whose checksum
// holds over a dictionary that does not decode — and pins the policy
// for each: recovery clips the tail back to its last record, physically,
// so it takes appends again; a scan of the corrupted bytes delivers
// every record before it and reports a dictionary it cannot read.
func TestRecoveryGarbageTail(t *testing.T) {
	corruptDict := append(beginFrame(nil), RecordVersion, v2KindDict, 0x7f) // 127 entries in 3 bytes
	endFrame(corruptDict)
	for _, tc := range []struct {
		name    string
		tail    []byte
		scanErr string // "" = the scan stops cleanly
	}{
		{"garbage", []byte("\xde\xad\xbe\xef garbage that is no frame"), ""},
		{"corrupt dictionary", corruptDict, "corrupt dictionary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir, Options{NoDownsample: true})
			fill(t, st, time.Second, time.Second, 10, 1)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			seg := newestSegment(t, dir, "raw")
			intact, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			corrupted := append(intact, tc.tail...)
			if err := os.WriteFile(seg, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}

			sc := getScanner(nil, nil)
			defer sc.release()
			n := 0
			err = sc.scan(bytes.NewReader(corrupted), 0, 1<<62, func() *Record { return &Record{} },
				func(*Record, []string) error { n++; return nil })
			if n != 10 || (tc.scanErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.scanErr)) {
				t.Fatalf("a scan emitted %d records and returned %v, want 10 and error %q", n, err, tc.scanErr)
			}

			st = mustOpen(t, dir, Options{NoDownsample: true})
			if got := st.Records(); got != 10 {
				t.Fatalf("recovered %d records, want 10 with the tail clipped", got)
			}
			if fi, err := os.Stat(seg); err != nil {
				t.Fatal(err)
			} else if fi.Size() != int64(len(intact)) {
				t.Fatalf("tail is %d bytes after recovery, want it clipped to %d", fi.Size(), len(intact))
			}
			fill(t, st, time.Second, time.Second, 1, 1)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = mustOpen(t, dir, Options{NoDownsample: true})
			if got := st.Records(); got != 11 {
				t.Fatalf("after recover-append-recover: %d records, want 11", got)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMonotonicAcrossRestart: a monitor's clock restarts at zero after
// every boot, but stored time must keep rising so range queries span
// restarts.
func TestMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	fill(t, st, time.Second, time.Second, 10, 1) // store clock 1..10
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, dir, Options{})
	fill(t, st, time.Second, time.Second, 10, 1) // sample clock restarts; store clock 11..20
	res, err := st.Query(QueryOptions{PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 20 {
		t.Fatalf("%d points spanning the restart, want 20", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TimeSeconds <= pts[i-1].TimeSeconds {
			t.Fatalf("time went backwards across the restart: %g after %g",
				pts[i].TimeSeconds, pts[i-1].TimeSeconds)
		}
	}
	if pts[19].TimeSeconds != 20 {
		t.Fatalf("last point at t=%g, want 20", pts[19].TimeSeconds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionBudget is the long-run bound: the store must stay under
// its byte budget while appends keep coming, shedding oldest data.
func TestRetentionBudget(t *testing.T) {
	dir := t.TempDir()
	budget := int64(64 << 10)
	st := mustOpen(t, dir, Options{Budget: budget})
	st.SetColumns([]string{"v"})
	for i := 0; i < 2000; i++ {
		if err := st.AppendSample(sampleAt(time.Duration(i)*time.Second, 4)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if use := st.DiskUsage(); use > budget {
				t.Fatalf("after %d appends the store uses %d bytes, budget %d", i+1, use, budget)
			}
		}
	}
	if use := st.DiskUsage(); use > budget {
		t.Fatalf("final usage %d bytes over budget %d", use, budget)
	}
	// The newest data must still be queryable; the oldest raw data must
	// be gone (the budget cannot hold 2000 refreshes).
	res, err := st.Query(QueryOptions{PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) == 0 {
		t.Fatal("no queryable data survived retention")
	}
	pts := res.Series[0].Points
	if pts[0].TimeSeconds == 1 {
		t.Fatal("oldest raw refresh survived a budget 30x too small")
	}
	if got := pts[len(pts)-1].TimeSeconds; got != 1999 {
		t.Fatalf("newest point at t=%g, want 1999", got)
	}
	// The 1m tier must reach further back than the raw tier: that is
	// what tiered downsampling buys under a byte budget.
	coarse, err := st.Query(QueryOptions{PID: 100, StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse.Series) != 1 || len(coarse.Series[0].Points) == 0 {
		t.Fatal("1m tier empty")
	}
	if coarse.Series[0].Points[0].TimeSeconds >= pts[0].TimeSeconds {
		t.Fatalf("1m tier starts at %g, not before the raw tier's %g",
			coarse.Series[0].Points[0].TimeSeconds, pts[0].TimeSeconds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionAge(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Retention: 100 * time.Second, SegmentAge: 20 * time.Second})
	fill(t, st, time.Second, time.Second, 400, 1)
	res, err := st.Query(QueryOptions{PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if pts[0].TimeSeconds < 400-100-25 {
		t.Fatalf("oldest surviving point at t=%g, want within ~the 100s horizon (+1 segment)", pts[0].TimeSeconds)
	}
	if pts[len(pts)-1].TimeSeconds != 400 {
		t.Fatalf("newest point at t=%g, want 400", pts[len(pts)-1].TimeSeconds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestColumnsSelfDescribingAfterReopen(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	st.SetColumns([]string{"ipc", "dmis"})
	fill(t, st, time.Second, time.Second, 5, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen without SetColumns: the segment's first record carries them.
	st = mustOpen(t, dir, Options{})
	res, err := st.Query(QueryOptions{PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "ipc" || res.Columns[1] != "dmis" {
		t.Fatalf("columns after reopen = %v", res.Columns)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppendsAndQueries exercises the lock discipline under
// -race: one appender, several range-query readers on all tiers.
func TestConcurrentAppendsAndQueries(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{SegmentBytes: 8 << 10})
	st.SetColumns([]string{"v"})
	const appends = 600
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(step float64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Query(QueryOptions{PID: -1, StepSeconds: step}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(float64(q%3) * 10)
	}
	fill(t, st, time.Second, time.Second, appends, 3)
	close(stop)
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(QueryOptions{PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Series[0].Points); got == 0 {
		t.Fatal("no points after concurrent run")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// wideSampleAt is sampleAt with four constant value columns per task —
// at 100 tasks, the refresh the density bound below was measured on.
func wideSampleAt(now time.Duration, tasks int) *core.Sample {
	s := sampleAt(now, tasks)
	for i := range s.Rows {
		s.Rows[i].Values = []float64{1.5, 2.5, 3.5, 4.5}
	}
	return s
}

// TestAppendSteadyStateAllocs pins the hot path, which runs on the
// sampling goroutine: once segments and accumulator entries exist,
// appending one refresh stays within a few allocations — with
// downsampling off, and as every command runs it, folding into the 10s
// and 1m tiers (200 one-second appends close 20 10s and 3 1m buckets,
// so bucket writes are inside the mean; measured: under half an
// allocation per append).
func TestAppendSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opt    Options
		sample *core.Sample
		cols   []string
		max    float64
	}{
		{"raw-only", Options{NoDownsample: true}, sampleAt(0, 50), []string{"v"}, 3},
		{"downsampling", Options{Budget: 1 << 30}, wideSampleAt(0, 100), []string{"mcycle", "minst", "ipc", "dmis"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := mustOpen(t, t.TempDir(), tc.opt)
			st.SetColumns(tc.cols)
			s, now := tc.sample, time.Duration(0)
			step := func() {
				now += time.Second
				s.Time = now
				if err := st.AppendSample(s); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: grow the encoder buffers, open every tier's
			// segment, populate both accumulators.
			for i := 0; i < 130; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(200, step); avg > tc.max {
				t.Fatalf("steady-state append costs %.1f allocs/op, want <= %.0f", avg, tc.max)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAppendDensity pins how dense live appends write the raw tier: at
// most 18.5 bytes per task-refresh on the wide sample, which v3 writes
// in 18.14 — so a per-row column added back fails here. The retired
// writers needed 19.15 (v2, with its IPC column) and 141 (v1 JSON).
func TestAppendDensity(t *testing.T) {
	dir := t.TempDir()
	// The budget keeps retention away: a dropped segment would read as
	// density.
	st := mustOpen(t, dir, Options{Budget: 1 << 30})
	st.SetColumns([]string{"mcycle", "minst", "ipc", "dmis"})
	const tasks, appends = 100, 600
	rawBytes := func() (total int64) {
		paths, err := filepath.Glob(filepath.Join(dir, "raw-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
		return total
	}
	// The first records carry the segment's dictionary and column names;
	// measure the steady state after them.
	fillWide := func(start, n int) {
		for i := start; i < start+n; i++ {
			if err := st.AppendSample(wideSampleAt(time.Duration(i+1)*time.Second, tasks)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fillWide(0, 8)
	before := rawBytes()
	fillWide(8, appends)
	density := float64(rawBytes()-before) / (appends * tasks)
	if density <= 0 || density > 18.5 {
		t.Fatalf("live appends write %.2f raw-tier bytes per task-refresh, want in (0, 18.5]", density)
	}
	t.Logf("%.2f raw-tier bytes per task-refresh", density)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordVersionRejected: a record newer than RecordVersion is
// refused loudly wherever it is read — a JSON document by DecodeRecord,
// a binary frame led by 0x04 at Open and by a scan that reaches it after
// a v3 record.
func TestRecordVersionRejected(t *testing.T) {
	if _, err := DecodeRecord([]byte(`{"v":99,"time_s":1,"rows":[],"machine":{}}`)); err == nil {
		t.Fatal("future record version accepted")
	}
	d := newV2Dict(nil)
	data := appendData(nil, &Record{TimeSeconds: 1, Rows: []RecordRow{{PID: 1, User: "u", Command: "c"}}}, d)
	path := filepath.Join(t.TempDir(), "raw-0000000001.seg")
	for _, payload := range [][]byte{d.appendDictFrame(nil, 0), data, {0x04, v2KindData, 0x80, 0x08}} {
		writeRawFrame(t, path, payload)
	}
	if _, err := Open(filepath.Dir(path), Options{}); err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("Open = %v, want a loud version-4 rejection", err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := getScanner(nil, nil)
	defer sc.release()
	n := 0
	err = sc.scan(bytes.NewReader(seg), 0, 1<<62, func() *Record { return &Record{} },
		func(*Record, []string) error { n++; return nil })
	if n != 1 || err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("a scan emitted %d records and returned %v, want the v3 record, then a loud version-4 rejection", n, err)
	}
}

// newestSegment returns the highest-sequence segment file of a tier.
func newestSegment(t *testing.T, dir, tier string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, tier+"-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no %s segments in %s (%v)", tier, dir, err)
	}
	return matches[len(matches)-1]
}

// TestDownsampleBoundaryAlignment is the regression test for the
// bucket-convention bug: a tier record stamped exactly on a coarser
// bucket's boundary must fold into the bucket ending there. With a
// linear CPU% ramp, the 1m point stamped t=120 must average exactly
// the raw samples in (60, 120].
func TestDownsampleBoundaryAlignment(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for i := 1; i <= 200; i++ {
		s := sampleAt(time.Duration(i)*time.Second, 1)
		s.Rows[0].CPUPct = float64(i)
		if err := st.AppendSample(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Query(QueryOptions{PID: 100, StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	want := map[float64]float64{60: 30.5, 120: 90.5, 180: 150.5} // mean of (k-60, k]
	for _, p := range pts {
		w, ok := want[p.TimeSeconds]
		if !ok {
			t.Fatalf("unexpected 1m point at t=%g", p.TimeSeconds)
		}
		if diff := p.CPUPct - w; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("1m point at t=%g averages %.3f, want %.3f (raw (%.0f,%.0f])",
				p.TimeSeconds, p.CPUPct, w, p.TimeSeconds-60, p.TimeSeconds)
		}
	}
	// The same range re-bucketed from the 10s tier must agree with the
	// 1m tier (both use the (start, end] convention).
	res10, err := st.Query(QueryOptions{PID: 100, StepSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p := res10.Series[0].Points[0]; p.TimeSeconds != 10 || p.CPUPct != 5.5 {
		t.Fatalf("first 10s bucket = %+v, want t=10 avg of raw (0,10] = 5.5", p)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFoldEqualsWriteFold: Query's re-bucketing and the downsample
// tiers are one fold. Store a's 10s-tier records, replayed as the raw
// refreshes of store b on a clock ten times faster (a step under 10 s
// keeps b's query on its raw tier) and re-bucketed there at 6 s,
// reproduce a's 1m tier point for point, bit for bit, on every complete
// bucket — with tasks absent from whole 10s buckets along the way. The
// machine roll-up is left out: a tier record sums its rows' averages,
// a re-bucketed one averages the finer records' sums.
func TestReadFoldEqualsWriteFold(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{})
	a.SetColumns([]string{"x", "y"})
	seed := uint64(7)
	for i := 0; i < 400; i++ {
		s := variedSample(500*time.Millisecond+time.Duration(i)*1500*time.Millisecond, 8, &seed)
		if drop := (i / 20) % 9; drop < len(s.Rows) { // each task sits out 30 s in turn
			s.Rows = append(s.Rows[:drop], s.Rows[drop+1:]...)
		}
		if err := a.AppendSample(s); err != nil {
			t.Fatal(err)
		}
	}
	b := mustOpen(t, t.TempDir(), Options{NoDownsample: true})
	b.SetColumns(a.Columns())
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	if _, err := a.Scan(QueryOptions{PID: -1, StepSeconds: 10}, func(rec *Record, _ []string) error {
		s := &core.Sample{Time: time.Duration(rec.TimeSeconds / 10 * float64(time.Second))}
		for _, r := range rec.Rows {
			s.Rows = append(s.Rows, core.Row{
				Info:   core.TaskInfo{ID: hpm.TaskID{PID: r.PID, TID: r.TID}, User: r.User, Comm: r.Command},
				CPUPct: r.CPUPct, Values: append([]float64(nil), r.Values...),
				Counts: []uint64{r.Instr, r.Cycles, r.Misses}, Table: table, Valid: true,
			})
		}
		return b.AppendSample(s)
	}); err != nil {
		t.Fatal(err)
	}
	want, err := a.Query(QueryOptions{PID: -1, StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Query(QueryOptions{PID: -1, StepSeconds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if want.ResolutionSeconds != 60 || want.StepSeconds != 0 || got.ResolutionSeconds != 0 || got.StepSeconds != 6 {
		t.Fatalf("tiers: want served at %g/%g, got at %g/%g", want.ResolutionSeconds, want.StepSeconds, got.ResolutionSeconds, got.StepSeconds)
	}
	if len(want.Series) != 8 || len(got.Series) != 8 {
		t.Fatalf("series: 1m tier %d, re-bucketed %d, want 8 each", len(want.Series), len(got.Series))
	}
	for i, ws := range want.Series {
		gs := got.Series[i]
		if gs.PID != ws.PID || gs.User != ws.User || gs.Command != ws.Command {
			t.Fatalf("series %d: %d/%s/%s vs %d/%s/%s", i, gs.PID, gs.User, gs.Command, ws.PID, ws.User, ws.Command)
		}
		// 400 refreshes 1.5 s apart: 9 or 10 complete minutes per task,
		// and at most the one trailing partial bucket beyond them.
		if len(ws.Points) < 9 || len(gs.Points) < len(ws.Points) || len(gs.Points) > len(ws.Points)+1 {
			t.Fatalf("pid %d: %d 1m points, %d re-bucketed", ws.PID, len(ws.Points), len(gs.Points))
		}
		for j, wp := range ws.Points {
			gp := gs.Points[j]
			gp.TimeSeconds *= 10
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("pid %d point %d: re-bucketed %+v, 1m tier %+v", ws.PID, j, gp, wp)
			}
		}
	}
	for _, st := range []*Store{a, b} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendErrorPoisonsStore: once an append fails (here: the store
// directory vanishes mid-run, so the next segment rotation cannot
// create a file), every subsequent append must fail with the same
// latched error instead of writing frames after a possibly-torn tail.
func TestAppendErrorPoisonsStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	st := mustOpen(t, dir, Options{SegmentBytes: 512, NoDownsample: true})
	if err := st.AppendSample(sampleAt(time.Second, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	var appendErr error
	for i := 2; i < 64; i++ {
		if appendErr = st.AppendSample(sampleAt(time.Duration(i)*time.Second, 2)); appendErr != nil {
			break
		}
	}
	if appendErr == nil {
		t.Fatal("appends kept succeeding with the store directory gone")
	}
	if got := st.Err(); got == nil {
		t.Fatal("append error was not latched")
	}
	records := st.Records()
	if err := st.AppendSample(sampleAt(time.Hour, 2)); err == nil {
		t.Fatal("poisoned store accepted another append")
	}
	if got := st.Records(); got != records {
		t.Fatalf("poisoned store still grew: %d -> %d records", records, got)
	}
	_ = st.Close()
}

// TestOpenLocksDirectory: a second Open of a live store must fail —
// two writers interleaving frames in one segment chain corrupt it.
func TestOpenLocksDirectory(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("flock-based directory lock is linux/darwin only")
	}
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a live store succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = mustOpen(t, dir, Options{}) // lock released on Close
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsChangeRespectsQueryRange: a query must be labelled with
// the columns in force where its range starts, even when the change
// record lies before the range inside the same segment.
func TestColumnsChangeRespectsQueryRange(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	st.SetColumns([]string{"a", "b"})
	fill(t, st, time.Second, time.Second, 5, 1) // t = 1..5 labelled a,b
	st.SetColumns([]string{"c", "d"})
	fill(t, st, 6*time.Second, time.Second, 5, 1) // t = 6..10 labelled c,d

	res, err := st.Query(QueryOptions{PID: 100, FromSeconds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "c" {
		t.Fatalf("range after the screen change labelled %v, want [c d]", res.Columns)
	}
	res, err = st.Query(QueryOptions{PID: 100, ToSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "a" {
		t.Fatalf("range before the screen change labelled %v, want [a b]", res.Columns)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

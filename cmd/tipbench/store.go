package main

// The -bench-store mode: measure the durable history store's hot paths
// — steady-state append cost (which must stay near-zero-alloc, like
// the recorder it tees from), crash recovery of a million-record store,
// and a range query served from the 1-minute downsample tier — and
// write them as machine-readable JSON (BENCH_store.json), a
// trajectory file next to BENCH_refresh.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/store"
)

// storeBenchTasks is the refresh width the append benchmark uses.
const storeBenchTasks = 100

// storeResult is one benchmark measurement in BENCH_store.json.
type storeResult struct {
	Name        string  `json:"name"`
	Tasks       int     `json:"tasks,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// storeRecovery is the recovery measurement: reopening (and thereby
// scanning, checksumming and clipping) a store of Records records.
type storeRecovery struct {
	Records       int64   `json:"records"`
	DiskBytes     int64   `json:"disk_bytes"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// storeCompaction is the compaction measurement: merging the recovery
// store's sealed segments. Live appends already write the columnar
// record format v2, so the ratio sits near 1; against a store an older
// build wrote as v1 JSON it is the ~4x that format cost.
type storeCompaction struct {
	Segments    int     `json:"segments"`
	Records     int64   `json:"records"`
	BytesBefore int64   `json:"bytes_before"`
	BytesAfter  int64   `json:"bytes_after"`
	Ratio       float64 `json:"ratio"`
	Seconds     float64 `json:"seconds"`
}

// storeReport is the BENCH_store.json document.
type storeReport struct {
	GeneratedBy string        `json:"generated_by"`
	GoMaxProcs  int           `json:"go_max_procs"`
	GoVersion   string        `json:"go_version"`
	Benchmarks  []storeResult `json:"benchmarks"`
	// AppendAllocsPerOp mirrors the StoreAppend benchmark's allocs/op —
	// the number CI gates on (steady-state appends must stay within a
	// few allocations).
	AppendAllocsPerOp int64 `json:"append_allocs_per_op"`
	// AppendBytesPerTask is what the same benchmark's appends added to
	// the raw tier on disk, per task-refresh — the density of the log
	// as it is written, which CI gates at a third of what the v1 JSON
	// writer needed for this sample.
	AppendBytesPerTask float64         `json:"append_bytes_per_task"`
	Recovery           storeRecovery   `json:"recovery"`
	Compaction         storeCompaction `json:"compaction"`
	// CompactionRatio mirrors Compaction.Ratio (reported, not gated).
	CompactionRatio float64 `json:"compaction_ratio"`
}

// rawTierBytes sums the raw tier's segment files in a store directory.
func rawTierBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "raw-*"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// benchSample builds one synthetic refresh of n tasks at time now.
func benchSample(now time.Duration, n int) *core.Sample {
	s := &core.Sample{Time: now}
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	for i := 0; i < n; i++ {
		pid := 100 + i
		s.Rows = append(s.Rows, core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: pid, TID: pid},
				User: "bench", Comm: "job", State: "R",
			},
			CPUPct: 50,
			Values: []float64{1.5, 2.5, 3.5, 4.5},
			Counts: []uint64{uint64(1000 * pid), uint64(500 * pid), uint64(pid)},
			Table:  table,
			Valid:  true,
		})
	}
	return s
}

// benchStore measures the store and writes <outDir>/BENCH_store.json.
func benchStore(outDir string, recoveryRecords int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	report := storeReport{
		GeneratedBy: "tipbench -bench-store",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}
	add := func(name string, tasks int, res testing.BenchmarkResult) {
		report.Benchmarks = append(report.Benchmarks, storeResult{
			Name:        name,
			Tasks:       tasks,
			Iterations:  res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		fmt.Printf("   %d iterations, %.0f ns/op, %d allocs/op\n",
			res.N, float64(res.NsPerOp()), res.AllocsPerOp())
	}

	// Steady-state append of a 100-task refresh, downsampling included
	// (the tee path a tiptopd -store daemon runs every interval).
	fmt.Println("== bench StoreAppend")
	appendDir, err := os.MkdirTemp("", "tipbench-store-append")
	if err != nil {
		return err
	}
	defer os.RemoveAll(appendDir)
	st, err := store.Open(appendDir, store.Options{Budget: 1 << 30})
	if err != nil {
		return err
	}
	st.SetColumns([]string{"mcycle", "minst", "ipc", "dmis"})
	sample := benchSample(0, storeBenchTasks)
	now := time.Duration(0)
	for i := 0; i < 8; i++ { // warm segments, buffers, accumulators
		now += time.Second
		sample.Time = now
		if err := st.AppendSample(sample); err != nil {
			return err
		}
	}
	rawBefore, err := rawTierBytes(appendDir)
	if err != nil {
		return err
	}
	appends := 0
	appendRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now += time.Second
			sample.Time = now
			if err := st.AppendSample(sample); err != nil {
				b.Fatal(err)
			}
		}
		appends += b.N
	})
	add("StoreAppend", storeBenchTasks, appendRes)
	report.AppendAllocsPerOp = appendRes.AllocsPerOp()
	rawAfter, err := rawTierBytes(appendDir)
	if err != nil {
		return err
	}
	report.AppendBytesPerTask = float64(rawAfter-rawBefore) / float64(appends*storeBenchTasks)
	fmt.Printf("   %.1f raw-tier bytes per task-refresh over %d appends\n", report.AppendBytesPerTask, appends)
	if err := st.Close(); err != nil {
		return err
	}

	// The same refresh under a group-commit fsync policy (flush every
	// 100 appends): what -fsync 100-records costs per append, amortized
	// over the batch.
	fmt.Println("== bench StoreAppendFsync100")
	fsyncDir, err := os.MkdirTemp("", "tipbench-store-fsync")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fsyncDir)
	st, err = store.Open(fsyncDir, store.Options{Budget: 1 << 30, Fsync: store.FsyncPolicy{Records: 100}})
	if err != nil {
		return err
	}
	st.SetColumns([]string{"mcycle", "minst", "ipc", "dmis"})
	now = 0
	for i := 0; i < 8; i++ {
		now += time.Second
		sample.Time = now
		if err := st.AppendSample(sample); err != nil {
			return err
		}
	}
	add("StoreAppendFsync100", storeBenchTasks, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now += time.Second
			sample.Time = now
			if err := st.AppendSample(sample); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if err := st.Close(); err != nil {
		return err
	}

	// Recovery: build a store of recoveryRecords single-task refreshes,
	// then time Open's full scan-verify-clip pass.
	fmt.Printf("== recovery of a %d-record store\n", recoveryRecords)
	recDir, err := os.MkdirTemp("", "tipbench-store-recovery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(recDir)
	st, err = store.Open(recDir, store.Options{Budget: 1 << 40})
	if err != nil {
		return err
	}
	st.SetColumns([]string{"ipc"})
	one := benchSample(0, 1)
	now = 0
	for st.Records() < recoveryRecords {
		now += time.Second
		one.Time = now
		if err := st.AppendSample(one); err != nil {
			return err
		}
	}
	written := st.Records()
	usage := st.DiskUsage()
	if err := st.Close(); err != nil {
		return err
	}
	start := time.Now()
	st, err = store.Open(recDir, store.Options{Budget: 1 << 40})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if got := st.Records(); got != written {
		return fmt.Errorf("recovery lost records: wrote %d, recovered %d", written, got)
	}
	report.Recovery = storeRecovery{
		Records:       written,
		DiskBytes:     usage,
		Seconds:       elapsed.Seconds(),
		RecordsPerSec: float64(written) / elapsed.Seconds(),
	}
	fmt.Printf("   %d records (%d MiB) recovered in %s (%.0f records/s)\n",
		written, usage>>20, elapsed.Truncate(time.Millisecond), report.Recovery.RecordsPerSec)

	// Compaction: merge the recovered store's sealed segments and
	// report the byte ratio.
	fmt.Println("== compaction of the recovered store")
	start = time.Now()
	cres, err := st.Compact(store.CompactOptions{})
	if err != nil {
		return err
	}
	celapsed := time.Since(start)
	var comp storeCompaction
	for _, t := range cres.Tiers {
		comp.Segments += t.Segments
		comp.Records += t.Records
		comp.BytesBefore += t.BytesBefore
		comp.BytesAfter += t.BytesAfter
	}
	comp.Seconds = celapsed.Seconds()
	if comp.BytesAfter > 0 {
		comp.Ratio = float64(comp.BytesBefore) / float64(comp.BytesAfter)
	}
	report.Compaction = comp
	report.CompactionRatio = comp.Ratio
	fmt.Printf("   %d segments (%d records): %d -> %d bytes (%.1fx) in %s\n",
		comp.Segments, comp.Records, comp.BytesBefore, comp.BytesAfter,
		comp.Ratio, celapsed.Truncate(time.Millisecond))

	// A week-at-a-glance query served from the 1-minute tier of the
	// store just recovered and compacted — the read path the
	// downsampling tiers buy.
	fmt.Println("== bench StoreQuery1mTier")
	add("StoreQuery1mTier", 1, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := st.Query(store.QueryOptions{PID: -1, StepSeconds: 60})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Series) == 0 {
				b.Fatal("empty 1m tier")
			}
		}
	}))
	if err := st.Close(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_store.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("store benchmarks:", path)
	return nil
}

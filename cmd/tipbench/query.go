package main

// The -bench-query mode: measure the shared expression query engine —
// the IPC expression evaluated over a million-record store from the
// 10-second and 1-minute downsample tiers, a grouped topk ranking, and
// a 3-agent fleet merge — and write BENCH_query.json, the fourth
// trajectory file. CI gates on the 1m-tier query over an hour of data
// staying under a sanity threshold: the whole point of serving
// expressions from the coarsest tier is that a dashboard-shaped query
// must not reread the raw log.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tiptop/internal/query"
	"tiptop/internal/store"
)

// queryReport is the BENCH_query.json document.
type queryReport struct {
	GeneratedBy  string        `json:"generated_by"`
	GoMaxProcs   int           `json:"go_max_procs"`
	GoVersion    string        `json:"go_version"`
	StoreRecords int64         `json:"store_records"`
	Benchmarks   []storeResult `json:"benchmarks"`
	// Query1mTier1hSeconds mirrors the QueryExpr1mTier1h benchmark in
	// seconds per evaluation — the number CI gates on.
	Query1mTier1hSeconds float64 `json:"query_1m_tier_1h_seconds"`
	// The scan benchmarks compare one full pass over the compacted 1m
	// tier: the serial full-decode baseline (the pre-vectorized path)
	// against the parallel, projected scan the query engine now rides.
	// CI gates the speedup and the per-record allocation rate.
	ScanRecords          int64   `json:"scan_records"`
	ScanAllocsPerOp      int64   `json:"scan_allocs_per_op"`
	ScanAllocsPerRecord  float64 `json:"scan_allocs_per_record"`
	QueryParallelSpeedup float64 `json:"query_parallel_speedup"`
}

// mustCompileBench compiles one benchmark expression against the
// synthetic store's vocabulary.
func mustCompileBench(src string) (*query.Compiled, error) {
	return query.Compile(src, query.KnownNames([]string{"mcycle", "minst", "ipc", "dmis"}))
}

// benchQuery measures the expression engine and writes
// <outDir>/BENCH_query.json. workers sizes the parallel scan pool
// (0 = one per CPU).
func benchQuery(outDir string, records int64, workers int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	report := queryReport{
		GeneratedBy: "tipbench -bench-query",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}
	add := func(name string, res testing.BenchmarkResult) {
		report.Benchmarks = append(report.Benchmarks, storeResult{
			Name:        name,
			Iterations:  res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		fmt.Printf("   %d iterations, %.0f ns/op, %d allocs/op\n",
			res.N, float64(res.NsPerOp()), res.AllocsPerOp())
	}

	// One store of `records` records at a 1-second cadence — the same
	// shape the recovery benchmark uses, built once and queried from
	// every tier.
	fmt.Printf("== building a %d-record store\n", records)
	dir, err := os.MkdirTemp("", "tipbench-query")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Small segments so the compacted 1m tier spans enough files for the
	// parallel scan to divide.
	st, err := store.Open(dir, store.Options{Budget: 1 << 40, SegmentBytes: 64 << 10})
	if err != nil {
		return err
	}
	st.SetColumns([]string{"mcycle", "minst", "ipc", "dmis"})
	// 8 tasks per refresh: value and counter columns must be real
	// chains, not single floats, for the scan measurements to resemble
	// a monitored machine.
	one := benchSample(0, 8)
	now := time.Duration(0)
	for st.Records() < records {
		now += time.Second
		one.Time = now
		if err := st.AppendSample(one); err != nil {
			return err
		}
	}
	report.StoreRecords = st.Records()
	// Compact: a long-lived store is, in practice, and the serial vs
	// parallel comparison below wants full-size merged segments.
	fmt.Println("== compacting the store")
	if _, err := st.Compact(store.CompactOptions{}); err != nil {
		return err
	}
	end := st.LastTime().Seconds()
	window := query.Options{FromSeconds: end - 3600, ToSeconds: end}

	ipc, err := mustCompileBench("delta(INSTRUCTIONS) / delta(CYCLES)")
	if err != nil {
		return err
	}
	ranked, err := mustCompileBench("topk(5, rate(CYCLES)) by user")
	if err != nil {
		return err
	}
	runSolo := func(name string, c *query.Compiled, opt query.Options) error {
		fmt.Println("== bench " + name)
		var failed error
		add(name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := query.QueryStore(st, c, opt)
				if err != nil {
					failed = err
					b.Fatal(err)
				}
				if len(res.Series) == 0 {
					failed = fmt.Errorf("%s: empty result", name)
					b.Fatal(failed)
				}
			}
		}))
		return failed
	}

	// The IPC expression over the trailing hour, served from the 10s
	// and 1m tiers, plus a grouped ranking from the 1m tier.
	tenSec := window
	tenSec.StepSeconds = 10
	if err := runSolo("QueryExpr10sTier1h", ipc, tenSec); err != nil {
		return err
	}
	oneMin := window
	oneMin.StepSeconds = 60
	if err := runSolo("QueryExpr1mTier1h", ipc, oneMin); err != nil {
		return err
	}
	report.Query1mTier1hSeconds = report.Benchmarks[len(report.Benchmarks)-1].NsPerOp / 1e9
	if err := runSolo("QueryExprTopKByUser1m", ranked, oneMin); err != nil {
		return err
	}

	// One full pass over the compacted 1m tier, serial full-decode
	// (every field of every record materialized fresh — the path every
	// query took before vectorized execution) versus the parallel,
	// projected scan decoding only what the IPC expression references
	// into per-worker scratch.
	runScan := func(name string, opts store.ScanOptions) (testing.BenchmarkResult, error) {
		fmt.Println("== bench " + name)
		var failed error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if _, err := st.ScanWith(opts, func(rec *store.Record, cols []string) error {
					n++
					return nil
				}); err != nil {
					failed = err
					b.Fatal(err)
				}
				if n == 0 {
					failed = fmt.Errorf("%s: empty scan", name)
					b.Fatal(failed)
				}
				report.ScanRecords = int64(n)
			}
		})
		add(name, res)
		return res, failed
	}
	tierScan := store.QueryOptions{PID: -1, StepSeconds: 60}
	serialRes, err := runScan("Scan1mTierSerialFull",
		store.ScanOptions{QueryOptions: tierScan, Workers: 1})
	if err != nil {
		return err
	}
	parallelRes, err := runScan("Scan1mTierParallelProjected", store.ScanOptions{
		QueryOptions: tierScan,
		Workers:      workers,
		Project:      true,
		Columns:      ipc.References(),
	})
	if err != nil {
		return err
	}
	report.ScanAllocsPerOp = parallelRes.AllocsPerOp()
	report.ScanAllocsPerRecord = float64(parallelRes.AllocsPerOp()) / float64(report.ScanRecords)
	report.QueryParallelSpeedup = float64(serialRes.NsPerOp()) / float64(parallelRes.NsPerOp())
	fmt.Printf("   %d-record 1m tier: parallel projected scan %.2fx over serial full decode, %.3f allocs/record\n",
		report.ScanRecords, report.QueryParallelSpeedup, report.ScanAllocsPerRecord)

	// The same hour-at-1m query merged across a 3-agent fleet, each
	// agent holding its own hour of records — the aggregator's
	// ?agent=* path.
	fmt.Println("== bench QueryExprFleetMerge3x1m")
	agents := map[string]*store.Store{}
	for i := 0; i < 3; i++ {
		adir, err := os.MkdirTemp("", "tipbench-query-agent")
		if err != nil {
			return err
		}
		defer os.RemoveAll(adir)
		ast, err := store.Open(adir, store.Options{Budget: 1 << 40})
		if err != nil {
			return err
		}
		defer ast.Close()
		ast.SetColumns([]string{"mcycle", "minst", "ipc", "dmis"})
		sample := benchSample(0, 1)
		for t := time.Second; t <= 3600*time.Second; t += time.Second {
			sample.Time = t
			if err := ast.AppendSample(sample); err != nil {
				return err
			}
		}
		agents[fmt.Sprintf("agent%d:941%d", i, i)] = ast
	}
	var failed error
	add("QueryExprFleetMerge3x1m", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := query.QueryFleet(agents, ipc, query.Options{StepSeconds: 60})
			if err != nil {
				failed = err
				b.Fatal(err)
			}
			if len(res.Series) == 0 {
				failed = fmt.Errorf("fleet merge: empty result")
				b.Fatal(failed)
			}
		}
	}))
	if failed != nil {
		return failed
	}
	if err := st.Close(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_query.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("query benchmarks:", path)
	return nil
}

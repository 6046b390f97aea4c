package main

import "encoding/json"

// The metric catalogue: BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds (bench_test.go checks the
// two agree), and README.md explains them.

// e2eMetric is one end-to-end metric. Every workload reports every one
// of them; lower is better for all. bound is the share of the parent's
// median by which the metric may get worse before a change counts as a
// regression.
type e2eMetric struct {
	name, unit string
	bound      float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", 0.25},
	{"refresh_p50_ms", "ms", 0.25},
	{"tick_to_scrape_p50_ms", "ms", 0.25},
	{"tick_to_client_p50_ms", "ms", 0.25},
	{"query_round_p50_ms", "ms", 0.25},
	{"cpu_ms_per_ktask_refresh", "ms", 0.25},
	{"allocs_per_task_refresh", "count", 0.02},
	{"disk_bytes_per_task_refresh", "bytes", 0.10},
	{"peak_rss_mb", "MiB", 0.25},
}

// layerMetric is one per-layer metric of the traced pass. moves names
// the end-to-end metric, and the workloads, a change to this number
// should show up in — or "none".
type layerMetric struct {
	name, unit, better string
	moves              string
}

const (
	lower  = "lower"
	higher = "higher"
)

var perLayerMetrics = []layerMetric{
	{"bench.ref_kernel_ms", "ms", lower, "none (the host's speed during the run: end-to-end timings are scaled by 1.25 ms over it)"},
	{"sim.advance_ms", "ms", lower, "none (generator: must not move when the program changes)"},
	{"sim.rss_after_setup_mb", "MiB", lower, "none (generator: the offset of peak_rss_mb)"},

	// The tails: too unsteady on a 2-core sandbox to gate (their spread
	// between runs of the same code exceeds any bound the driver accepts),
	// so they are reported here, in raw milliseconds, from the traced pass.
	{"refresh_p95_ms", "ms", lower, "refresh_p50_ms on store_churn (its tail: rotation, retention and compaction stalls show here first) and on the live workloads"},
	{"tick_to_scrape_p95_ms", "ms", lower, "tick_to_scrape_p50_ms on live_fleet (its tail: rises first when the consumers contend for the cores)"},
	{"tick_to_client_p95_ms", "ms", lower, "tick_to_client_p50_ms on live_fleet (its tail)"},
	{"query_round_p90_ms", "ms", lower, "query_round_p50_ms on history_query (its tail)"},
	{"recover_s", "s", lower, "none gated (OpenStore of the store the run left behind — a daemon restart; a millisecond on the small stores)"},

	{"core.update_self_us_per_task", "us", lower, "refresh_p50_ms, cpu_ms_per_ktask_refresh on live_fleet, live_mux"},
	{"core.update_serial_us_per_task", "us", lower, "refresh_p50_ms, cpu_ms_per_ktask_refresh on live_fleet, live_mux"},
	{"core.shard_speedup", "ratio", higher, "refresh_p50_ms on live_fleet, live_mux"},
	{"core.allocs_per_task", "count", lower, "allocs_per_task_refresh on live_fleet, live_mux"},

	{"hpm.reads_per_task_refresh", "count", lower, "refresh_p50_ms on live_fleet (read dominated), live_mux"},
	{"hpm.attaches_per_refresh", "count", lower, "refresh_p50_ms on live_mux (attach/close dominated); about 0 on live_fleet"},
	{"hpm.closes_per_refresh", "count", lower, "refresh_p50_ms on live_mux"},
	{"hpm.read_us_per_task", "us", lower, "refresh_p50_ms on live_fleet, live_mux"},
	{"mux.self_us_per_task", "us", lower, "refresh_p50_ms on live_mux; no change on live_fleet (capacity not exceeded)"},
	{"mux.rotations_per_refresh", "count", lower, "refresh_p50_ms on live_mux; 0 on the other workloads"},
	{"mux.coverage_mean", "ratio", higher, "none (the accuracy price of rotation; 1 off live_mux)"},

	{"metrics.eval_ns_per_column", "ns", lower, "refresh_p50_ms on live_mux (13 columns), live_fleet (4)"},
	{"metrics.eval_allocs_per_column", "count", lower, "allocs_per_task_refresh on live_mux, live_fleet"},

	{"tiptop.sample_copy_us_per_task", "us", lower, "refresh_p50_ms, allocs_per_task_refresh on live_fleet"},
	{"tiptop.wire_sample_us_per_task", "us", lower, "refresh_p50_ms, allocs_per_task_refresh on live_fleet"},

	{"history.observe_us_per_task", "us", lower, "refresh_p50_ms on live_fleet"},
	{"history.observe_allocs", "count", lower, "allocs_per_task_refresh on live_fleet"},
	{"history.snapshot_ms", "ms", lower, "tick_to_scrape_p50_ms on live_fleet"},

	{"store.append_us_per_task", "us", lower, "refresh_p50_ms on live_fleet (small share), store_churn"},
	{"store.append_p50_us", "us", lower, "refresh_p50_ms on store_churn"},
	{"store.append_p99_us", "us", lower, "refresh_p50_ms on store_churn (its tail: rotation, retention and compaction stalls)"},
	{"store.append_allocs", "count", lower, "allocs_per_task_refresh on store_churn"},
	{"store.rotations", "count", lower, "refresh_p50_ms on store_churn (and its tail)"},
	{"store.segments_retired", "count", lower, "disk_bytes_per_task_refresh on store_churn"},
	{"store.compact_s", "s", lower, "setup_s on history_query; cpu_ms_per_ktask_refresh on store_churn"},
	{"store.compact_bytes_rewritten", "bytes", lower, "cpu_ms_per_ktask_refresh on store_churn"},
	{"store.compact_ratio", "ratio", higher, "disk_bytes_per_task_refresh on store_churn, history_query"},
	{"store.write_amp", "ratio", lower, "cpu_ms_per_ktask_refresh on store_churn"},
	{"store.append_stall_max_ms", "ms", lower, "refresh_p50_ms on store_churn (its tail: the worst refresh while Compact runs)"},
	{"store.tier_bytes_raw", "bytes", lower, "disk_bytes_per_task_refresh on store_churn, live_fleet"},
	{"store.tier_bytes_10s", "bytes", lower, "disk_bytes_per_task_refresh on store_churn, history_query"},
	{"store.tier_bytes_1m", "bytes", lower, "disk_bytes_per_task_refresh on store_churn, history_query"},
	{"store.fsync_append_p50_us", "us", lower, "none (sandbox flush latency is not a device's)"},
	{"store.fsyncs", "count", lower, "none"},
	{"store.recover_records_per_s", "1/s", higher, "none gated (recover_s: mixed v1/v2 on store_churn, mostly v2 on history_query)"},
	{"store.recover_v1_share", "ratio", lower, "none gated (recover_s on store_churn, history_query)"},
	{"store.scan_ms", "ms", lower, "query_round_p50_ms on history_query, store_churn"},
	{"store.scan_records", "count", lower, "query_round_p50_ms on history_query"},
	{"store.scan_records_per_s", "1/s", higher, "query_round_p50_ms on history_query, store_churn"},
	{"store.scan_allocs_per_record", "count", lower, "allocs_per_task_refresh on history_query"},
	{"store.scan_serial_ms", "ms", lower, "query_round_p50_ms on history_query (one worker)"},

	{"query.compile_us", "us", lower, "query_round_p50_ms on history_query"},
	{"query.engine_self_ms", "ms", lower, "query_round_p50_ms on history_query"},
	{"query.records_per_point", "count", lower, "query_round_p50_ms on history_query (the waste ratio)"},
	{"query.json_encode_ms", "ms", lower, "query_round_p50_ms on history_query"},
	{"query.response_bytes", "bytes", lower, "query_round_p50_ms on history_query"},
	{"query.ipc_1h_10s_ms", "ms", lower, "query_round_p50_ms on history_query (narrow window: reads fewer files)"},
	{"query.ipc_all_1m_ms", "ms", lower, "query_round_p50_ms on history_query (whole 1m tier: decodes faster)"},
	{"query.topk_all_1m_ms", "ms", lower, "query_round_p50_ms on history_query"},
	{"query.pid_all_1m_ms", "ms", lower, "query_round_p50_ms on history_query (legacy pid aggregator)"},
	{"query.ipc_30m_raw_ms", "ms", lower, "query_round_p50_ms on history_query, live_fleet (raw tier, v1 JSON)"},

	{"remote.encode_json_ms", "ms", lower, "refresh_p50_ms on live_fleet"},
	{"remote.encode_binary_ms", "ms", lower, "refresh_p50_ms on live_fleet"},
	{"remote.json_bytes_per_task", "bytes", lower, "tick_to_client_p50_ms on live_fleet"},
	{"remote.binary_bytes_per_task", "bytes", lower, "none (the stream client asks for JSON, the -connect default)"},
	{"remote.publish_us", "us", lower, "refresh_p50_ms on live_fleet"},
	{"remote.dropped_frames", "count", lower, "tick_to_client_p50_ms on live_fleet (0 in a closed loop)"},
	{"remote.decode_json_ms", "ms", lower, "tick_to_client_p50_ms on live_fleet"},
	{"remote.decode_binary_ms", "ms", lower, "none (see remote.binary_bytes_per_task)"},

	{"export.openmetrics_encode_ms", "ms", lower, "tick_to_scrape_p50_ms on live_fleet"},
	{"export.openmetrics_bytes_per_task", "bytes", lower, "tick_to_scrape_p50_ms on live_fleet"},
	{"remote.metrics_cache_hit_ratio", "ratio", higher, "cpu_ms_per_ktask_refresh on live_fleet (a second scrape of one refresh must hit)"},
	{"http.scrape_transfer_ms", "ms", lower, "tick_to_scrape_p50_ms on live_fleet"},
	{"ui.render_ms", "ms", lower, "none gated yet (what a -connect terminal pays after decode)"},

	{"trace.overhead_pct", "%", lower, "none (traced vs untraced refresh_p50_ms)"},
	{"trace.layer_sum_vs_e2e_pct", "%", lower, "none (layer self times on the sampling goroutine vs untraced refresh_p50_ms)"},
}

func boundOf(metric string) (float64, bool) {
	for _, m := range endToEnd {
		if m.name == metric {
			return m.bound, true
		}
	}
	return 0, false
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the driver
// passes, and the suite's default.
const runSeconds = 15

// benchmarkJSON renders the catalogue as the BENCHMARK.json the
// repository root carries.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, lower, m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(data, '\n')
}

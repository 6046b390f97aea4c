package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"tiptop/internal/store"
)

// fsyncAppends is the length of the short extra phase that appends
// under FsyncPolicy{Records: 100}.
const fsyncAppends = 150

// layerNumbers is what the layer rigs measured.
type layerNumbers struct {
	ticks, rows       int
	update, serial    series // ms per Update, default shards and one shard
	coreSelf          series // ms per Update minus observers
	coreAllocs        uint64
	observeSelf       series
	observeAllocs     uint64
	append_           series
	appendAllocs      uint64
	belowReads        int64
	belowAttaches     int64
	belowCloses       int64
	aboveAttaches     int64
	belowNanos        int64
	belowReadNanos    int64
	aboveNanos        int64
	coverageMean      float64
	evalNS, evalAlloc float64
	writeAmp          float64
	fsyncAppend       series
	fsyncs            int64
}

// runLayerRigs runs the sampling side composed from the internal
// packages for the given number of refreshes, three times: with timed
// observers only (what Update, the recorder and the store cost), with
// the counting backends around the mux as well (what crosses it), and
// with one shard. Two store side phases follow the first: what its
// appends cost in bytes once compacted (write amplification), and
// appends under a group-commit fsync policy.
func runLayerRigs(w workload, seed int64, dir string, ticks int) (*layerNumbers, error) {
	// Nothing may be retired here: write amplification is read off the
	// directory.
	w.store.Budget = 1 << 30
	run := func(name string, parallelism int, countBackend bool) (*layerRig, error) {
		l, err := newLayerRig(w, seed, filepath.Join(dir, name), parallelism, countBackend)
		if err != nil {
			return nil, fmt.Errorf("layer rig %s: %w", name, err)
		}
		_, err = l.sess.Update() // the attach pass
		for i := 0; i < warmTicks && err == nil; i++ {
			err = l.tick(false)
		}
		l.reset()
		for i := 0; i < ticks && err == nil; i++ {
			err = l.tick(true)
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("layer rig %s: %w", name, err)
		}
		return l, nil
	}
	l, err := run("layers", 0, false)
	if err != nil {
		return nil, err
	}
	defer l.close()
	n := &layerNumbers{
		ticks: ticks, rows: l.rows, update: l.update,
		coreAllocs:    l.updateAllocs - l.rec.allocs,
		observeSelf:   l.rec.self(),
		observeAllocs: l.rec.allocs - l.st.allocs,
		append_:       l.st.nanos,
		appendAllocs:  l.st.allocs,
		coverageMean:  l.coverageSum / float64(l.rows),
	}
	n.coreSelf = make(series, len(l.update))
	for i := range n.coreSelf {
		n.coreSelf[i] = l.update[i] - l.rec.nanos[i]
	}
	if len(l.last.Rows) > 0 {
		n.evalNS, n.evalAlloc = evalCost(l.sess.Screen(), &l.last.Rows[0])
	}

	// Write amplification: every byte the appends and one compaction put
	// on disk, per byte of raw-tier payload. Closing seals the active
	// segments so that the compaction rewrites them too.
	if err := l.store.Close(); err != nil {
		return nil, err
	}
	before, err := dirStat(l.store.Dir())
	if err != nil {
		return nil, err
	}
	if l.store, err = store.Open(l.store.Dir(), w.store); err != nil {
		return nil, err
	}
	res, err := l.store.Compact(store.CompactOptions{})
	if err != nil {
		return nil, err
	}
	written := before["raw"].bytes + before["10s"].bytes + before["1m"].bytes
	for _, t := range res.Tiers {
		written += t.BytesAfter
	}
	if raw := before["raw"].bytes; raw > 0 {
		n.writeAmp = float64(written) / float64(raw)
	}

	// Appends under group commit: the last refresh again and again, one
	// second apart, into a store that flushes every 100 records.
	fopt := w.store
	fopt.Fsync = store.FsyncPolicy{Records: 100}
	fst, err := store.Open(filepath.Join(dir, "fsync"), fopt)
	if err != nil {
		return nil, err
	}
	defer fst.Close()
	fst.SetColumns(l.store.Columns())
	for i := 0; i < fsyncAppends; i++ {
		l.last.Time += interval
		t := time.Now()
		if err := fst.AppendSample(l.last); err != nil {
			return nil, err
		}
		n.fsyncAppend.add(time.Since(t))
	}
	n.fsyncs = fst.Records() / 100

	counted, err := run("counted", 0, true)
	if err != nil {
		return nil, err
	}
	defer counted.close()
	n.belowReads, n.belowAttaches = counted.below.reads.Load(), counted.below.attaches.Load()
	n.belowCloses, n.aboveAttaches = counted.below.closes.Load(), counted.above.attaches.Load()
	n.belowNanos, n.belowReadNanos = counted.below.nanos.Load(), counted.below.readNanos.Load()
	n.aboveNanos = counted.above.nanos.Load()

	serial, err := run("serial", 1, false)
	if err != nil {
		return nil, err
	}
	defer serial.close()
	n.serial = serial.update
	return n, nil
}

// traceInputs gathers what the traced pass measured around the facade
// rig, for perLayer to turn into the per-layer report.
type traceInputs struct {
	w             workload
	x             *runner
	sd            shutdown
	layers        *layerNumbers
	wire          wireCosts
	queries       queryCosts
	untracedP50   float64 // refresh p50 of the untraced first third, ms
	rssAfterSetup float64
	dirBefore     map[string]*tierStat // the store when the timed phase began
}

// perLayer assembles every per-layer metric of BENCHMARK.json. A layer
// a workload hardly uses reports what little it did; nothing is left
// out.
func perLayer(in traceInputs) map[string]metricValue {
	m := map[string]metricValue{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over something a failed run never measured
		}
		m[name] = metricValue{v, unit}
	}
	x, l, tr := in.x, in.layers, in.x.tr
	tasks := float64(in.w.tasks)
	ticks := float64(l.ticks)
	rows := float64(l.rows)
	us := func(ms float64) float64 { return ms * 1000 }

	put("bench.ref_kernel_ms", x.ref.times.median(), "ms")
	put("sim.advance_ms", x.advance.median(), "ms")
	put("sim.rss_after_setup_mb", in.rssAfterSetup, "MiB")

	put("refresh_p95_ms", x.refresh.pct(95), "ms")
	put("tick_to_scrape_p95_ms", x.scrape.pct(95), "ms")
	put("tick_to_client_p95_ms", x.client.pct(95), "ms")
	put("query_round_p90_ms", x.round.pct(90), "ms")
	put("recover_s", in.sd.recover.median()/1000, "s")

	put("core.update_self_us_per_task", us(l.coreSelf.median())/tasks, "us")
	put("core.update_serial_us_per_task", us(l.serial.median())/tasks, "us")
	put("core.shard_speedup", l.serial.median()/l.update.median(), "ratio")
	put("core.allocs_per_task", float64(l.coreAllocs)/rows, "count")

	put("hpm.reads_per_task_refresh", float64(l.belowReads)/rows, "count")
	put("hpm.attaches_per_refresh", float64(l.belowAttaches)/ticks, "count")
	put("hpm.closes_per_refresh", float64(l.belowCloses)/ticks, "count")
	put("hpm.read_us_per_task", float64(l.belowReadNanos)/1e3/rows, "us")
	put("mux.self_us_per_task", float64(l.aboveNanos-l.belowNanos)/1e3/rows, "us")
	put("mux.rotations_per_refresh", float64(l.belowAttaches-l.aboveAttaches)/ticks, "count")
	put("mux.coverage_mean", l.coverageMean, "ratio")

	put("metrics.eval_ns_per_column", l.evalNS, "ns")
	put("metrics.eval_allocs_per_column", l.evalAlloc, "count")

	sampleNow := tr.durations("tiptop.sample_now").median()
	wire := tr.durations("tiptop.wire_sample").median()
	publish := tr.durations("remote.publish").median()
	copyMS := max(sampleNow-l.update.median(), 0)
	put("tiptop.sample_copy_us_per_task", us(copyMS)/tasks, "us")
	put("tiptop.wire_sample_us_per_task", us(wire)/tasks, "us")

	put("history.observe_us_per_task", us(l.observeSelf.median())/tasks, "us")
	put("history.observe_allocs", float64(l.observeAllocs)/ticks, "count")
	put("history.snapshot_ms", in.wire.snapshot, "ms")

	put("store.append_us_per_task", us(l.append_.median())/tasks, "us")
	put("store.append_p50_us", us(l.append_.pct(50)), "us")
	put("store.append_p99_us", us(l.append_.pct(99)), "us")
	put("store.append_allocs", float64(l.appendAllocs)/ticks, "count")

	after := in.sd.dir
	var rotations, retired int64
	for tier, b := range in.dirBefore {
		rotations += after[tier].maxSeq - b.maxSeq
		retired += after[tier].minSeq - b.minSeq
	}
	put("store.rotations", float64(rotations), "count")
	put("store.segments_retired", float64(retired), "count")
	var segBefore, segAfter int64
	for _, res := range append(x.compactions, in.sd.finalCompaction, x.r.setupCompaction) {
		if res == nil {
			continue
		}
		for _, t := range res.Tiers {
			segBefore += t.BytesBefore
			segAfter += t.BytesAfter
		}
	}
	put("store.compact_s", (x.compactTime.sum()+x.r.setupCompactMS)/1000, "s")
	put("store.compact_bytes_rewritten", float64(segBefore), "bytes")
	ratio := 0.0
	if segAfter > 0 {
		ratio = float64(segBefore) / float64(segAfter)
	}
	put("store.compact_ratio", ratio, "ratio")
	put("store.write_amp", l.writeAmp, "ratio")
	put("store.append_stall_max_ms", x.stallMax, "ms")
	put("store.tier_bytes_raw", float64(after["raw"].bytes), "bytes")
	put("store.tier_bytes_10s", float64(after["10s"].bytes), "bytes")
	put("store.tier_bytes_1m", float64(after["1m"].bytes), "bytes")
	put("store.fsync_append_p50_us", us(l.fsyncAppend.median()), "us")
	put("store.fsyncs", float64(l.fsyncs), "count")
	recoverS := in.sd.recover.median() / 1000
	put("store.recover_records_per_s", float64(in.sd.records)/recoverS, "1/s")
	var all, v1 int64
	for _, t := range after {
		all += t.bytes
		v1 += t.v1Bytes
	}
	put("store.recover_v1_share", float64(v1)/float64(all), "ratio")

	q := in.queries
	put("store.scan_ms", q.scanMS, "ms")
	put("store.scan_records", float64(q.scanRecords), "count")
	put("store.scan_records_per_s", float64(q.scanRecords)/(q.scanMS/1000), "1/s")
	put("store.scan_allocs_per_record", float64(q.scanAllocs)/float64(q.scanRecords), "count")
	put("store.scan_serial_ms", q.scanSerialMS, "ms")
	put("query.compile_us", q.compileUS, "us")
	put("query.engine_self_ms", q.engineSelfMS, "ms")
	put("query.records_per_point", float64(q.scanRows)/float64(max(q.points, 1)), "count")
	put("query.json_encode_ms", q.jsonMS, "ms")
	put("query.response_bytes", float64(x.respBytes)/float64(max(len(x.round), 1)), "bytes")
	for _, c := range queryClasses {
		put("query."+c+"_ms", x.class[c].median(), "ms")
	}

	put("remote.encode_json_ms", in.wire.encodeJSON, "ms")
	put("remote.encode_binary_ms", in.wire.encodeBin, "ms")
	put("remote.json_bytes_per_task", float64(in.wire.jsonBytes)/tasks, "bytes")
	put("remote.binary_bytes_per_task", float64(in.wire.binBytes)/tasks, "bytes")
	put("remote.publish_us", us(max(publish-in.wire.encodeJSON-in.wire.encodeBin, 0)), "us")
	put("remote.dropped_frames", float64(x.r.srv.Hub().Dropped()), "count")
	put("remote.decode_json_ms", in.wire.decodeJSON, "ms")
	put("remote.decode_binary_ms", in.wire.decodeBin, "ms")

	encodes := x.r.encodeTimes()
	encode := encodes.median()
	put("export.openmetrics_encode_ms", encode, "ms")
	put("export.openmetrics_bytes_per_task", float64(x.scrapeBytes)/float64(max(len(x.scrape), 1))/tasks, "bytes")
	// Every refresh is scraped once and must be encoded once; an encode
	// beyond that is a repeated scrape that missed the cache.
	hit := 0.0
	if x.rescrapes > 0 {
		hit = 1 - float64(len(encodes)-x.encodesBefore-len(x.refresh))/float64(x.rescrapes)
	}
	put("remote.metrics_cache_hit_ratio", hit, "ratio")
	put("http.scrape_transfer_ms", max(tr.durations("scrape").median()-encode, 0), "ms")
	put("ui.render_ms", in.wire.render, "ms")

	traced := tr.durations("refresh").median()
	put("trace.overhead_pct", 100*(traced-in.untracedP50)/in.untracedP50, "%")
	layerSum := l.coreSelf.median() + l.observeSelf.median() + l.append_.median() + copyMS + wire + publish
	put("trace.layer_sum_vs_e2e_pct", 100*(layerSum-in.untracedP50)/in.untracedP50, "%")
	return m
}

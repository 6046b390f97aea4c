package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"tiptop"
)

// setupRepeats is how many times a run builds its rig: setup_s is the
// median, and the last rig built is the one measured.
const setupRepeats = 5

// The store a run leaves behind is reopened at least recoverMin times,
// and up to recoverMax times while that takes less than recoverBudget:
// recover_s is the median, and small stores reopen in a millisecond.
const (
	recoverMin    = 5
	recoverMax    = 25
	recoverBudget = time.Second
)

// setupRefRuns is how many times the reference kernel runs after each
// set-up (and the collection of the garbage set-up left).
const setupRefRuns = 60

// maxFailNotes bounds the failure messages a report carries.
const maxFailNotes = 8

// runner drives one workload through its timed phase and the shutdown
// that follows, checking every answer it gets.
type runner struct {
	r      *rig
	w      workload
	tr     *tracer
	traced bool // spans are recorded from this tick on

	attempted, failed int
	notes             []string

	advance, refresh, scrape, client, round series
	class                                   map[string]*series
	respBytes, scrapeBytes                  int
	taskRefreshes                           int
	sut                                     meter
	// rescrapes counts second scrapes of one refresh and encodesBefore
	// the OpenMetrics encodes that preceded the timed phase: together with
	// the rig's encode log they give the cache hit ratio.
	rescrapes, encodesBefore int
	lastSample               *tiptop.Sample
	// rss is the resident set after every tick, MiB.
	rss series
	// ref is the reference kernel, run every refEvery ticks.
	ref       *refKernel
	refEvery  int
	lastRound []query

	// sums accumulates, per anchor task, the counter deltas every
	// refresh reported — the count oracle compares them with the
	// simulator's ground truth.
	sums     map[int]map[string]uint64
	coverage series

	compacting  chan error
	compactions []*tiptop.CompactionResult
	compactTime series
	// stallMax is the slowest refresh seen while a Compact was running.
	stallMax float64
}

func newRunner(r *rig, tr *tracer, ref *refKernel) *runner {
	x := &runner{r: r, w: r.w, tr: tr, ref: ref, class: map[string]*series{}, sums: map[int]map[string]uint64{}}
	x.encodesBefore = len(r.encodeTimes())
	x.refEvery = 1
	for _, c := range queryClasses {
		x.class[c] = &series{}
	}
	for _, pid := range r.pids[:anchorCount] {
		x.sums[pid] = map[string]uint64{}
	}
	return x
}

// op counts one operation and, when it failed or answered wrongly,
// records why. It returns whether the operation may contribute a
// latency figure.
func (x *runner) op(err error) bool {
	x.attempted++
	if err == nil {
		return true
	}
	x.failed++
	if len(x.notes) < maxFailNotes {
		x.notes = append(x.notes, err.Error())
	}
	return false
}

// span records one traced interval when tracing is on.
func (x *runner) span(name string, id int, parent string, start, end time.Time) {
	if x.traced {
		x.tr.add(name, id, parent, start, end)
	}
}

// tick runs one closed-loop round: the generator advances the machine,
// the sampling goroutine refreshes and publishes, the scraper and the
// stream client fetch that refresh concurrently, and — when due — the
// dashboard runs its query round and a background Compact starts. Tick
// k+1 starts only when everything of tick k is done.
func (x *runner) tick(k int, last bool) {
	r := x.r
	t := time.Now()
	r.sc.Advance(interval)
	x.advance.add(time.Since(t))
	x.span("sim.advance", k, "", t, time.Now())
	if k%x.refEvery == 0 {
		x.ref.run()
	}
	if x.w.churnEvery > 0 && k%x.w.churnEvery == 0 {
		if err := r.churn(); err != nil {
			x.op(fmt.Errorf("generator: churn: %w", err))
			return
		}
	}

	x.sut.start()
	compacting := x.compacting != nil
	t0 := time.Now()
	f, err := r.refresh()
	if !x.op(err) {
		x.sut.stop()
		return
	}
	s, t3 := f.sample, f.published
	d := t3.Sub(t0)
	x.refresh.add(d)
	if ms := float64(d) / float64(time.Millisecond); compacting && ms > x.stallMax {
		x.stallMax = ms
	}
	x.taskRefreshes += len(s.Rows)
	x.span("refresh", k, "", t0, t3)
	x.span("tiptop.sample_now", k, "refresh", t0, f.sampled)
	x.span("tiptop.wire_sample", k, "refresh", f.sampled, f.converted)
	x.span("remote.publish", k, "refresh", f.converted, t3)

	var (
		wg                sync.WaitGroup
		body              []byte
		etag              string
		cs                *tiptop.Sample
		scrapeErr, cliErr error
		scrapeEnd, cliEnd time.Time
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		body, etag, scrapeErr = r.get("/metrics")
		scrapeEnd = time.Now()
	}()
	go func() {
		defer wg.Done()
		cs, cliErr = r.client.Sample()
		cliEnd = time.Now()
	}()
	wg.Wait()
	x.span("scrape", k, "", t3, scrapeEnd)
	x.span("client.sample", k, "", t3, cliEnd)
	if x.traced {
		// A second scrape of the same refresh must be served from the
		// wire server's cache.
		t := time.Now()
		if _, _, err := r.get("/metrics"); x.op(err) {
			x.rescrapes++
			x.span("scrape.cached", k, "", t, time.Now())
		}
	}

	var queries []query
	var bodies [][]byte
	if k%x.w.queryEvery == 0 {
		queries = genQueries(r.rng, x.w, r.st.LastTime().Seconds(), r.pids[:anchorCount])
		bodies = x.queryRound(k, queries)
		x.lastRound = queries
	}
	if x.w.compactEvery > 0 && k%x.w.compactEvery == 0 && x.compacting == nil {
		x.startCompact(k)
	}
	x.sut.stop()
	x.reapCompact(false)
	x.rss = append(x.rss, rssMiB())

	// Everything below checks answers; it is the benchmark's own work.
	if scrapeErr == nil {
		scrapeErr = checkScrape(body, etag, r.refreshes, s)
	}
	if x.op(scrapeErr) {
		x.scrape.add(scrapeEnd.Sub(t0))
		x.scrapeBytes += len(body)
	}
	if cliErr == nil {
		cliErr = checkClientSample(cs, s)
	}
	if cliErr == nil && (k == 1 || last) {
		cliErr = x.checkRender(s, cs)
	}
	if x.op(cliErr) {
		x.client.add(cliEnd.Sub(t0))
	}
	if bodies != nil {
		x.checkRound(queries, bodies, k == x.w.queryEvery || last)
	}
	x.countAnchors(s)
	x.lastSample = s
}

// queryRound sends the round's queries one after another, as one
// dashboard client does, and returns the bodies (nil where one failed).
func (x *runner) queryRound(k int, queries []query) [][]byte {
	bodies := make([][]byte, len(queries))
	ok := true
	begin := time.Now()
	durs := make([]time.Duration, len(queries))
	for i, q := range queries {
		t := time.Now()
		body, _, err := x.r.get(q.path)
		durs[i] = time.Since(t)
		x.span("query."+q.class, k, "query.round", t, time.Now())
		if !x.op(err) {
			ok = false
			continue
		}
		bodies[i] = body
		x.respBytes += len(body)
	}
	x.span("query.round", k, "", begin, time.Now())
	if ok {
		x.round.add(time.Since(begin))
		for i, q := range queries {
			x.class[q.class].add(durs[i])
		}
	}
	return bodies
}

// checkRound applies the determinism contract to one round: each
// expression body must equal the serial, full-decode answer computed
// through the facade, and the pid body the store's own Query. A wrong
// answer is a failed operation.
func (x *runner) checkRound(queries []query, bodies [][]byte, deep bool) {
	for i, q := range queries {
		if bodies[i] == nil {
			continue
		}
		if !json.Valid(bodies[i]) {
			x.op(fmt.Errorf("query %s: body is not JSON", q.class))
			continue
		}
		if !deep {
			continue
		}
		want, err := x.r.serialAnswer(q)
		if err == nil && !bytes.Equal(want, bodies[i]) {
			err = fmt.Errorf("query %s: body differs from the serial full-decode answer (%d vs %d bytes)", q.class, len(bodies[i]), len(want))
		}
		x.op(err)
	}
}

// serialAnswer recomputes a query's HTTP body without the worker pool
// and without projection.
func (r *rig) serialAnswer(q query) ([]byte, error) {
	var v any
	if q.expr != "" {
		res, err := r.st.Querier().QueryExpr(q.expr, tiptop.QueryOptions{
			FromSeconds: q.from, StepSeconds: q.step, Workers: 1, FullDecode: true,
		})
		if err != nil {
			return nil, err
		}
		v = res
	} else {
		res, err := r.st.Query(tiptop.StoreQuery{PID: q.pid, StepSeconds: q.step})
		if err != nil {
			return nil, err
		}
		v = res
	}
	return handlerJSON(v)
}

// handlerJSON encodes v the way the query handlers do.
func handlerJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// startCompact runs one Compact beside the following ticks. What it
// records is read only after reapCompact received its result.
func (x *runner) startCompact(k int) {
	x.compacting = make(chan error, 1)
	go func(done chan<- error, traced bool) {
		t := time.Now()
		res, err := x.r.st.Compact(tiptop.CompactOptions{})
		if err == nil {
			x.compactions = append(x.compactions, res)
			x.compactTime.add(time.Since(t))
		}
		if traced {
			x.tr.add("store.compact", k, "", t, time.Now())
		}
		done <- err
	}(x.compacting, x.traced)
}

// reapCompact collects a finished background Compact; with wait it
// blocks until the running one ends.
func (x *runner) reapCompact(wait bool) {
	if x.compacting == nil {
		return
	}
	if wait {
		x.op(<-x.compacting)
		x.compacting = nil
		return
	}
	select {
	case err := <-x.compacting:
		x.op(err)
		x.compacting = nil
	default:
	}
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkScrape verifies that a /metrics body is the complete exposition
// of exactly this refresh: the server's refresh version in the ETag,
// the recorder's refresh count and clock in the body, one per-task
// sample for every task, and the terminator.
func checkScrape(body []byte, etag string, refreshes int, s *tiptop.Sample) error {
	if want := `"` + strconv.Itoa(refreshes) + `"`; etag != want {
		return fmt.Errorf("scrape: ETag %s, want %s", etag, want)
	}
	for _, line := range []string{
		"\ntiptop_refreshes_total " + fmtG(float64(refreshes)) + "\n",
		"\ntiptop_time_seconds " + fmtG(s.Time.Seconds()) + "\n",
		"\ntiptop_tasks " + fmtG(float64(len(s.Rows))) + "\n",
	} {
		if !bytes.Contains(body, []byte(line)) {
			return fmt.Errorf("scrape: body lacks %q", line[1:len(line)-1])
		}
	}
	if n := bytes.Count(body, []byte("\ntiptop_task_ipc{")); n != len(s.Rows) {
		return fmt.Errorf("scrape: %d task samples, want %d", n, len(s.Rows))
	}
	if !bytes.HasSuffix(body, []byte("# EOF\n")) {
		return fmt.Errorf("scrape: body is not terminated")
	}
	return nil
}

func checkClientSample(cs, s *tiptop.Sample) error {
	if cs.Time != s.Time || len(cs.Rows) != len(s.Rows) {
		return fmt.Errorf("client: sample at %v with %d rows, want %v with %d", cs.Time, len(cs.Rows), s.Time, len(s.Rows))
	}
	return nil
}

// checkRender requires the refresh to render byte-identically on both
// sides of the wire.
func (x *runner) checkRender(s, cs *tiptop.Sample) error {
	var local, remote bytes.Buffer
	if err := x.r.mon.Render(&local, s); err != nil {
		return err
	}
	if err := x.r.client.Render(&remote, cs); err != nil {
		return err
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		return fmt.Errorf("client: remote render differs from local render")
	}
	return nil
}

// The counters the count oracle follows: both are on every screen.
var oracleEvents = []string{"CYCLES", "INSTRUCTIONS"}

func (x *runner) countAnchors(s *tiptop.Sample) {
	for i := range s.Rows {
		row := &s.Rows[i]
		sum, ok := x.sums[row.PID]
		if !ok {
			continue
		}
		for _, e := range oracleEvents {
			sum[e] += row.Events[e]
		}
		x.coverage = append(x.coverage, row.Coverage)
	}
}

// checkCounts compares the summed per-refresh counts of the anchor
// tasks with the simulator's exact totals since the timed phase began.
// Exact counting must match to the count; multiplexed counting (live_mux,
// coverage < 1) must extrapolate to within the validation oracle's 5% —
// plus the boundary effect of a window that does not start at attach:
// the estimate lags by up to one rotation period (four refreshes), which
// is under 1% of a full-scale run and most of the error of a tiny one.
func (x *runner) checkCounts(base map[int]map[string]uint64, muxed bool) {
	tolerance := 0.05 + 4/float64(max(len(x.refresh), 1))
	for pid, sum := range x.sums {
		for _, e := range oracleEvents {
			total, err := x.r.sc.TaskTotal(pid, e)
			if err == nil {
				truth := float64(total - base[pid][e])
				got := float64(sum[e])
				switch {
				case !muxed && got != truth:
					err = fmt.Errorf("counts: pid %d %s summed to %.0f, simulator says %.0f", pid, e, got, truth)
				case muxed && (truth == 0 || math.Abs(got-truth)/truth > tolerance):
					err = fmt.Errorf("counts: pid %d %s extrapolated to %.0f, simulator says %.0f (more than %.1f%% off)", pid, e, got, truth, 100*tolerance)
				}
			}
			x.op(err)
		}
	}
	if muxed {
		var err error
		if m := x.coverage.median(); m <= 0 || m >= 1 {
			err = fmt.Errorf("counts: median coverage %.3f, want rotation (0 < coverage < 1)", m)
		}
		x.op(err)
	}
}

// anchorTotals reads the simulator's cumulative counts of the anchors.
func (r *rig) anchorTotals() map[int]map[string]uint64 {
	out := map[int]map[string]uint64{}
	for _, pid := range r.pids[:anchorCount] {
		out[pid] = map[string]uint64{}
		for _, e := range oracleEvents {
			out[pid][e], _ = r.sc.TaskTotal(pid, e)
		}
	}
	return out
}

// shutdown is what follows the timed phase: the last compaction, the
// store's final size, close, and the daemon restart — reopening the
// store the run left behind and checking nothing acknowledged is gone.
type shutdown struct {
	diskBytes       int64
	retainedRaw     int
	recover         series
	records         int64
	finalCompaction *tiptop.CompactionResult
	dir             map[string]*tierStat
}

func (x *runner) shutdown() shutdown {
	var sd shutdown
	r := x.r
	x.reapCompact(true)
	r.stopServing()
	if x.w.compactEvery > 0 || x.w.compactAt > 0 {
		t := time.Now()
		res, err := r.st.Compact(tiptop.CompactOptions{})
		if x.op(err) {
			sd.finalCompaction = res
			x.compactTime.add(time.Since(t))
		}
	}
	sd.diskBytes = r.st.DiskUsage()
	var err error
	sd.dir, err = dirStat(r.dir)
	x.op(err)
	// The anchors live for the whole run, so one anchor's raw points
	// count the raw refreshes retention has left on disk.
	anchor := r.pids[0]
	if res, err := r.st.Query(tiptop.StoreQuery{PID: anchor}); x.op(err) {
		for _, sr := range res.Series {
			sd.retainedRaw += len(sr.Points)
		}
	}
	tail := query{class: "reopen", expr: exprIPC, from: max(r.st.LastTime().Seconds()-x.w.rawWin, 0), step: 1}
	before, err := r.serialAnswer(tail)
	x.op(err)
	records, lastTime := r.st.Records(), r.st.LastTime()
	sd.records = records
	x.op(r.st.Close())
	r.st = nil

	begin := time.Now()
	for i := 0; i < recoverMin || (i < recoverMax && time.Since(begin) < recoverBudget); i++ {
		t := time.Now()
		st, err := tiptop.OpenStore(r.dir, x.w.store)
		d := time.Since(t)
		if !x.op(err) {
			continue
		}
		sd.recover.add(d)
		x.span("store.open", i, "", t, t.Add(d))
		r.st = st
		if i == 0 {
			after, err := r.serialAnswer(tail)
			switch {
			case err != nil:
			case st.Records() != records || st.LastTime() != lastTime:
				err = fmt.Errorf("reopen: %d records to %v, acknowledged %d to %v", st.Records(), st.LastTime(), records, lastTime)
			case !bytes.Equal(before, after):
				err = fmt.Errorf("reopen: trailing-window query answers differently after reopen")
			}
			x.op(err)
		}
		x.op(st.Close())
		r.st = nil
	}
	return sd
}

// outDir is where runs keep their stores and write traces and reports:
// results/bench under the current directory, which the repository
// ignores.
var outDir = filepath.Join("results", "bench")

// workDir creates the directory one run keeps its stores in.
func workDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

// runWorkload is one run: set-up (several times, the median is
// setup_s), the timed phase of a fixed number of refreshes, and the
// shutdown with its recovery check. An untraced run reports the
// end-to-end metrics. A traced run leaves the first third of its
// refreshes untraced (the baseline tracing overhead is measured
// against), records spans for the rest, then runs the layer rigs and
// the direct calls, and reports the per-layer metrics instead.
func runWorkload(w workload, scale string, seed int64, seconds float64, traced bool) (*result, error) {
	w, err := w.scaled(scale)
	if err != nil {
		return nil, err
	}
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setup, setupRaw series
	var r *rig
	ref := newRefKernel()
	repeats := setupRepeats
	if scale == "tiny" || traced {
		repeats = 1 // setup_s belongs to the untraced pass
	}
	for i := 0; i < repeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		// Every repetition starts from a collected heap and is scaled by
		// the reference kernel run right after it.
		runtime.GC()
		t := time.Now()
		r, err = newRig(w, seed, filepath.Join(dir, "store-"+strconv.Itoa(i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t)
		runtime.GC()
		for j := 0; j < setupRefRuns; j++ {
			ref.run()
		}
		setupRaw.add(d)
		setup = append(setup, ref.factor(setupRefRuns)*float64(d)/float64(time.Millisecond))
	}
	defer r.close()
	rssAfterSetup := rssMiB()
	dirBefore, err := dirStat(r.dir)
	if err != nil {
		return nil, err
	}

	x := newRunner(r, newTracer(), ref)
	x.ref.times = nil // the loop's factor comes from the loop's samples
	base := r.anchorTotals()
	n := w.ticks(scale, seconds)
	firstTraced := n + 1
	if traced {
		// Half the ticks: the layer rigs and the direct calls that follow
		// take the other half of the time.
		n = max(n/2, 20)
		firstTraced = n/3 + 1
	}
	x.refEvery = max(n/400, 1)
	// The tick count is fixed; the deadline only keeps a host much slower
	// than the one the rates were calibrated on inside the driver's time
	// limit, at the price of a shorter run.
	begin := time.Now()
	deadline := begin.Add(time.Duration(2 * seconds * float64(time.Second)))
	for k := 1; k <= n; k++ {
		x.traced = k >= firstTraced
		last := k == n || time.Now().After(deadline)
		x.tick(k, last)
		if last {
			n = k
		}
	}
	wall := time.Since(begin)
	x.checkCounts(base, w.screen == "wide")
	var wire wireCosts
	if traced && x.lastSample != nil {
		wire, err = r.wireCosts(x.lastSample)
		x.op(err)
	}
	sd := x.shutdown()

	res := &result{Attempted: x.attempted, Failed: x.failed, Metrics: map[string]metricValue{}}
	res.info = append(res.info, fmt.Sprintf("workload %s scale %s seed %d trace %v: %d refreshes of %d tasks in %.2fs (generator %.2fs)",
		w.name, scale, seed, traced, n, w.tasks, wall.Seconds(), x.advance.sum()/1000))
	for _, note := range x.notes {
		res.info = append(res.info, "FAILED: "+note)
	}
	for name, s := range map[string]series{"refresh": x.refresh, "scrape": x.scrape, "client": x.client, "query_round": x.round, "recover": sd.recover, "setup": setup} {
		res.info = append(res.info, fmt.Sprintf("samples %s %d", name, len(s)))
	}
	sort.Strings(res.info[len(res.info)-6:])

	// Timings are reported in reference milliseconds: scaled by what the
	// reference kernel says the host did to this run (see refKernel).
	f := x.ref.factor(0)
	res.info = append(res.info, fmt.Sprintf("reference kernel p50 %.4f ms over %d samples: timings scaled by %.4f (raw refresh_p50 %.4f ms, raw setup %.4f s)",
		x.ref.times.median(), len(x.ref.times), f, x.refresh.pct(50), setupRaw.median()/1000))
	if !traced {
		res.Metrics = x.endToEndMetrics(sd, setup, f)
		res.info = append(res.info, fmt.Sprintf("resident set after a tick: p50 %.1f MiB, peak %.1f MiB; ru_maxrss, set-ups and shutdown included, %.1f MiB", x.rss.pct(50), x.rss.pct(100), peakRSSMiB()))
	} else {
		in := traceInputs{w: w, x: x, sd: sd, wire: wire, rssAfterSetup: rssAfterSetup, dirBefore: dirBefore}
		in.untracedP50 = x.refresh[:min(firstTraced-1, len(x.refresh))].median()
		if in.queries, err = probeQueries(r.dir, w.store, x.lastRound); err != nil {
			return nil, fmt.Errorf("query probe: %w", err)
		}
		if in.layers, err = runLayerRigs(w, seed, dir, max(n/2, 10)); err != nil {
			return nil, err
		}
		res.Metrics = perLayer(in)
		res.info = append(res.info, reconcile(res.Metrics, x, firstTraced)...)
		if err := x.tr.write(w.name); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = x.attempted, x.failed
	res.Correct = x.failed == 0
	return res, nil
}

// endToEndMetrics assembles every end-to-end metric of BENCHMARK.json:
// the loop's timings scaled by the run's reference factor f, each
// set-up already scaled by its own.
func (x *runner) endToEndMetrics(sd shutdown, setup series, f float64) map[string]metricValue {
	ktr := float64(x.taskRefreshes) / 1000
	return map[string]metricValue{
		"setup_s":                     {setup.median() / 1000, "s"},
		"refresh_p50_ms":              {f * x.refresh.median(), "ms"},
		"tick_to_scrape_p50_ms":       {f * x.scrape.median(), "ms"},
		"tick_to_client_p50_ms":       {f * x.client.median(), "ms"},
		"query_round_p50_ms":          {f * x.round.median(), "ms"},
		"cpu_ms_per_ktask_refresh":    {f * float64(x.sut.cpu) / float64(time.Millisecond) / ktr, "ms"},
		"allocs_per_task_refresh":     {float64(x.sut.allocs) / float64(x.taskRefreshes), "count"},
		"disk_bytes_per_task_refresh": {float64(sd.diskBytes) / float64(max(sd.retainedRaw*x.w.tasks, 1)), "bytes"},
		"peak_rss_mb":                 {x.rss.pct(100), "MiB"},
	}
}

// reconcile prints the checks that tie the traced pass to the untraced
// one. They warn; they do not fail a run.
func reconcile(m map[string]metricValue, x *runner, firstTraced int) []string {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "WARN"
	}
	sum := m["trace.layer_sum_vs_e2e_pct"].Value
	out := []string{
		fmt.Sprintf("reconcile layer sum vs untraced refresh_p50: %+.1f%% (want within 10%%) %s", sum, verdict(math.Abs(sum) <= 10)),
		fmt.Sprintf("reconcile tracing overhead on refresh_p50: %+.1f%%", m["trace.overhead_pct"].Value),
	}
	cut := min(firstTraced-1, len(x.advance))
	before, after := x.advance[:cut].median(), x.advance[cut:].median()
	if before > 0 {
		d := 100 * (after - before) / before
		out = append(out, fmt.Sprintf("reconcile sim.advance_ms traced vs untraced: %+.1f%% (want within 10%%: the generator must not be what moved) %s", d, verdict(math.Abs(d) <= 10)))
	}
	return out
}

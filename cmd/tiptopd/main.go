// Command tiptopd runs a tiptop monitor as a daemon: the engine samples
// continuously (real machine or a simulated scenario), a Recorder keeps
// per-task history and roll-up aggregates, and an HTTP server exports
// them to other tools — the serving layer the paper's interactive tool
// stops short of.
//
// Endpoints:
//
//	/metrics                OpenMetrics / Prometheus text exposition,
//	                        cached per refresh and ETag'd: thousands of
//	                        scrapers cost one encode per interval
//	/api/v1/snapshot        latest refresh + aggregates, JSON
//	/api/v1/history?pid=N   recorded time series of one process, JSON
//	/api/v1/history         recorded PIDs, JSON
//	/api/v1/events          the event registry with backend support, JSON
//	/api/v1/sample          latest refresh in the versioned wire format
//	/api/v1/stream          SSE push of every refresh (tiptop -connect)
//	/api/v1/query           durable-store range queries (with -store):
//	                        ?pid=&from=&to=&step=, JSON or
//	                        &format=openmetrics text
//
// With -join the daemon becomes a fleet aggregator instead: it streams
// N remote tiptopd agents and serves their merged, per-machine-labelled
// state on /metrics, /api/v1/snapshot, /api/v1/agents and
// /api/v1/stream (see fleet.go). `tiptop -connect` attaches to agents,
// not to aggregators — the aggregator's stream interleaves machines.
//
// Usage:
//
//	tiptopd                        monitor the real machine on :9412
//	tiptopd -sim datacenter        serve the Figure 1 grid node
//	tiptopd -addr :8080 -d 1       custom listen address and cadence
//	tiptopd -history 1800 -n 100   deeper rings, exit after 100 refreshes
//	tiptopd -config f.xml          options (delay, sort, listen, ...) from XML
//	tiptopd -join host1:9412,host2:9412   aggregate a fleet of agents
//	tiptopd -store /var/lib/tiptop -retention 168h -budget 256MB
//	                               durable history: recover on boot, tee
//	                               every sample, serve range queries
//	tiptopd -fsync 2s,1000-records -compact 1h
//	                               group-commit durability; periodic
//	                               merging of sealed segments
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"time"

	"tiptop"
	"tiptop/internal/config"
	"tiptop/internal/remote"
	"tiptop/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiptopd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tiptopd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":9412", "HTTP listen address")
		delay      = fs.Float64("d", 2, "delay between refreshes, seconds")
		iterations = fs.Int("n", 0, "number of refreshes to serve (0 = until interrupted)")
		screenName = fs.String("screen", "", "screen: default, branch, fp, mem, lat, roofline, wide, system (default \"default\", or \"system\" with -system-wide)")
		sortBy     = fs.String("sort", "cpu", "sort key: cpu, pid, or a column name")
		user       = fs.String("u", "", "only monitor this user's tasks")
		parallel   = fs.Int("j", 0, "sampling shards (0 = one per CPU, 1 = serial)")
		simName    = fs.String("sim", "", "monitor a simulated scenario: spec, revolution, conflict, datacenter, assist, steady, validate")
		scale      = fs.Float64("scale", 0.01, "workload scale for simulated scenarios")
		systemWide = fs.Bool("system-wide", false, "monitor logical CPUs instead of tasks (perf's -a; one row per CPU)")
		counters   = fs.Int("counters", 0, "PMU counter capacity for the real backend: rotate events beyond it in userland (0 = kernel multiplexing)")
		historyCap = fs.Int("history", 0, "points retained per task (0 = default 600)")
		window     = fs.Duration("window", 0, "windowed-rate horizon, capped at 128 refreshes (0 = default 1m)")
		confFile   = fs.String("config", "", "load options from an XML configuration file (set options override flags)")
		join       = fs.String("join", "", "aggregate remote tiptopd agents (comma-separated host:port list) instead of monitoring locally")
		storeDir   = fs.String("store", "", "durable history store directory: recover on boot, tee every sample, serve /api/v1/query")
		retention  = fs.Duration("retention", 0, "store age horizon, e.g. 72h (0 = bounded by the byte budget only)")
		budgetStr  = fs.String("budget", "", "store on-disk byte budget, e.g. 64MB (default 64MB)")
		fsyncStr   = fs.String("fsync", "", "store group-commit durability: off, an interval (2s), a record count (1000-records), or both comma-combined (default off)")
		compact    = fs.Duration("compact", 0, "merge the store's sealed segments at startup and then every period, e.g. 1h (0 = never)")
		wire       = fs.String("wire", "", "stream encoding used when dialing -join agents: json or binary (default json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *delay <= 0 {
		return fmt.Errorf("refresh delay must be positive, got -d %v", *delay)
	}
	if *parallel < 0 {
		return fmt.Errorf("sampling shards cannot be negative, got -j %d", *parallel)
	}
	if *historyCap < 0 {
		return fmt.Errorf("history capacity cannot be negative, got -history %d", *historyCap)
	}
	if *window < 0 {
		return fmt.Errorf("rate window cannot be negative, got -window %v", *window)
	}
	if *counters < 0 {
		return fmt.Errorf("counter capacity cannot be negative, got -counters %d", *counters)
	}
	var budget int64
	if *budgetStr != "" {
		b, err := store.ParseBytes(*budgetStr)
		if err != nil {
			return fmt.Errorf("bad -budget: %w", err)
		}
		budget = b
	}
	fsync, err := store.ParseFsync(*fsyncStr)
	if err != nil {
		return fmt.Errorf("bad -fsync: %w", err)
	}
	if *compact < 0 {
		return fmt.Errorf("compaction period cannot be negative, got -compact %v", *compact)
	}

	cfg := tiptop.Config{
		Interval:    time.Duration(*delay * float64(time.Second)),
		Screen:      *screenName,
		SortBy:      *sortBy,
		User:        *user,
		Parallelism: *parallel,
		SystemWide:  *systemWide,
		Counters:    *counters,
	}
	if *confFile != "" {
		parsed, err := config.Load(*confFile)
		if err != nil {
			return err
		}
		if parsed.Options.Interval() > 0 {
			cfg.Interval = parsed.Options.Interval()
		}
		if parsed.Options.Sort != "" {
			cfg.SortBy = parsed.Options.Sort
		}
		if parsed.Options.Parallelism > 0 {
			cfg.Parallelism = parsed.Options.Parallelism
		}
		if parsed.Options.SystemWide {
			cfg.SystemWide = true
		}
		if parsed.Options.Counters > 0 {
			cfg.Counters = parsed.Options.Counters
		}
		// Like delay/sort/parallelism above (and cmd/tiptop), options
		// the config file sets override flags.
		if parsed.Options.History > 0 {
			*historyCap = parsed.Options.History
		}
		if parsed.Options.Listen != "" {
			*addr = parsed.Options.Listen
		}
		if parsed.Options.Join != "" {
			*join = parsed.Options.Join
		}
		if parsed.Options.Store != "" {
			*storeDir = parsed.Options.Store
		}
		if parsed.Options.Retention != "" {
			*retention = parsed.Options.RetentionValue()
		}
		if parsed.Options.Budget != "" {
			budget = parsed.Options.BudgetValue()
		}
		if parsed.Options.Fsync != "" {
			fsync = parsed.Options.FsyncValue()
		}
		if parsed.Options.Compact != "" {
			*compact = parsed.Options.CompactValue()
		}
		if parsed.Options.Wire != "" {
			*wire = parsed.Options.Wire
		}
		// Event and screen definitions translate to the facade, so a
		// daemon can sample (and stream) custom screens over
		// user-defined events.
		cfg.ApplyDefinitions(parsed)
	}
	cfg.StoreDir = *storeDir
	cfg.StoreRetention = *retention
	cfg.StoreBudget = budget
	cfg.StoreFsync = fsync
	cfg.StoreCompact = *compact
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch *wire {
	case "", "json", "binary":
	default:
		return fmt.Errorf("unknown wire format %q, want -wire json or -wire binary", *wire)
	}
	if *join != "" {
		if *simName != "" {
			return fmt.Errorf("-join aggregates remote agents and cannot monitor -sim %s itself", *simName)
		}
		return runFleet(*join, *addr, *iterations, *historyCap, *window, *wire, cfg, stdout)
	}
	// A solo daemon always serves both encodings; -wire (and a shared
	// config's wire= attribute) only selects how -join dials agents.

	mon, pace, err := buildMonitor(*simName, *scale, cfg)
	if err != nil {
		return err
	}
	defer mon.Close()
	rec := tiptop.NewRecorder(tiptop.RecorderOptions{Capacity: *historyCap, Window: *window})
	mon.Subscribe(rec)
	var hist *tiptop.Store
	if cfg.StoreDir != "" {
		hist, err = tiptop.OpenStore(cfg.StoreDir, cfg.StoreOptions())
		if err != nil {
			return err
		}
		defer func() {
			if cerr := hist.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "tiptopd: store:", cerr)
			}
		}()
		rec.Tee(hist)
		fmt.Fprintf(stdout, "tiptopd: store %s: %d records recovered (%d bytes, history to t=%s)\n",
			cfg.StoreDir, hist.Records(), hist.DiskUsage(), hist.LastTime().Truncate(time.Second))
		if cfg.StoreCompact > 0 {
			// One pass over the recovered history now, then periodically:
			// long-running daemons keep their on-disk format at v2
			// density without an operator cron job.
			res, err := hist.Compact(tiptop.CompactOptions{})
			if err != nil {
				return fmt.Errorf("store compaction: %w", err)
			}
			fmt.Fprintf(stdout, "tiptopd: store compacted: %s\n", compactSummary(res))
			stopCompact := make(chan struct{})
			compactDone := make(chan struct{})
			go func() {
				defer close(compactDone)
				tick := time.NewTicker(cfg.StoreCompact)
				defer tick.Stop()
				for {
					select {
					case <-stopCompact:
						return
					case <-tick.C:
						// Appends and queries continue during the pass;
						// a failed pass is logged, not fatal — the store
						// keeps serving its current segments.
						if _, err := hist.Compact(tiptop.CompactOptions{}); err != nil {
							fmt.Fprintln(os.Stderr, "tiptopd: store compaction:", err)
						}
					}
				}
			}()
			defer func() { close(stopCompact); <-compactDone }()
		}
	}
	d := newDaemon(mon, rec, pace, hist)
	d.named = cfg.NamedExprs()
	defer d.srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tiptopd: monitoring %s, serving http://%s/metrics\n", mon.Machine(), ln.Addr())

	srv := &http.Server{Handler: d.handler()}
	stop := make(chan struct{})
	loopDone := make(chan error, 1)
	go func() { loopDone <- d.loop(stop, *iterations) }()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)

	shutdown := func() {
		// Disconnect stream subscribers first: SSE handlers are active
		// requests Shutdown would otherwise wait out.
		d.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
	}
	select {
	case err := <-loopDone:
		// Finite -n run completed, the scenario drained, or sampling
		// failed: stop serving and report.
		shutdown()
		return err
	case err := <-serveDone:
		close(stop)
		<-loopDone
		return err
	case <-interrupted:
		close(stop)
		<-loopDone
		shutdown()
		return nil
	}
}

// buildMonitor selects the backend like cmd/tiptop: a named scenario,
// or the real machine with fallback to the simulated data-center node.
// The returned pace is the real-time pause between refreshes for
// simulated backends, whose Sample() advances virtual time instantly
// (the real backend sleeps inside Sample itself).
func buildMonitor(simName string, scale float64, cfg tiptop.Config) (*tiptop.Monitor, time.Duration, error) {
	if simName == "" {
		mon, err := tiptop.NewRealMonitor(cfg)
		if err == nil {
			return mon, 0, nil
		}
		fmt.Fprintf(os.Stderr, "tiptopd: %v; falling back to -sim datacenter\n", err)
		simName = "datacenter"
	}
	sc, err := tiptop.NewNamedScenario(simName, scale)
	if err != nil {
		return nil, 0, err
	}
	mon, err := tiptop.NewSimMonitor(sc, cfg)
	if err != nil {
		return nil, 0, err
	}
	return mon, mon.Interval(), nil
}

// daemon couples one monitor and its recorder to the HTTP handlers.
// The sampling loop is the only goroutine touching the monitor; the
// handlers read exclusively through the recorder (whose lock makes
// scrapes safe against the live sharded sampler) and the remote.Server
// caches the loop publishes into.
type daemon struct {
	mon  *tiptop.Monitor
	rec  *tiptop.Recorder
	pace time.Duration
	// srv owns the wire-protocol surface: the SSE stream hub, the
	// latest wire sample, and the per-refresh cached, ETag'd /metrics
	// body (one OpenMetrics encode per interval, however many scrapers).
	srv *remote.Server
	// hist is the durable store behind /api/v1/query, nil without
	// -store.
	hist *tiptop.Store
	// named maps stored expression names (config <expr> elements) to
	// their sources for /api/v1/query?expr=<name>.
	named map[string]string
}

// newDaemon wires a monitor and recorder to a wire-protocol server;
// hist (may be nil) adds the durable range-query surface.
func newDaemon(mon *tiptop.Monitor, rec *tiptop.Recorder, pace time.Duration, hist *tiptop.Store) *daemon {
	return &daemon{
		mon:  mon,
		rec:  rec,
		pace: pace,
		srv:  remote.NewServer(rec.WriteOpenMetrics),
		hist: hist,
	}
}

// publish converts one refresh to the wire format and hands it to the
// stream hub and caches — encoded at most once per format, by the
// first reader that wants it rather than here, and shared by every
// subscriber and scraper. Store append errors (latched by the tee,
// which cannot return them) are surfaced here, once per refresh: a
// daemon whose durable history has stopped must fail loudly, not keep
// serving while the past silently goes missing.
func (d *daemon) publish(s *tiptop.Sample) error {
	if d.hist != nil {
		if err := d.hist.Err(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return d.srv.Publish(d.mon.WireSample(s))
}

// loop drives the monitor: one attach pass, then n refreshes (n <= 0 =
// until stopped), publishing every sample to the wire surface.
func (d *daemon) loop(stop <-chan struct{}, n int) error {
	s, err := d.mon.SampleNow()
	if err != nil {
		return err
	}
	if err := d.publish(s); err != nil {
		return err
	}
	for i := 0; n <= 0 || i < n; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		s, err := d.mon.Sample()
		if err != nil {
			return err
		}
		if err := d.publish(s); err != nil {
			return err
		}
		if d.pace > 0 {
			select {
			case <-stop:
				return nil
			case <-time.After(d.pace):
			}
		}
	}
	return nil
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", d.index)
	mux.HandleFunc("GET /api/v1/snapshot", d.snapshot)
	mux.HandleFunc("GET /api/v1/history", d.history)
	mux.HandleFunc("GET /api/v1/events", d.events)
	// With a store: raw and expression queries over durable history.
	// Without one, expression queries still run against the recorder's
	// live rings; only raw range queries need the store.
	mux.Handle("GET /api/v1/query", tiptop.NamedExprHandler(d.named, tiptop.QueryHandler(d.hist, d.rec)))
	// /metrics, /api/v1/sample and /api/v1/stream come from the wire
	// server (cached, ETag'd, fan-out).
	d.srv.Register(mux)
	return mux
}

func (d *daemon) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "tiptopd monitoring %s\n\n/metrics\n/api/v1/snapshot\n/api/v1/history?pid=N\n/api/v1/events\n/api/v1/sample\n/api/v1/stream\n", d.mon.Machine())
	fmt.Fprintf(w, "/api/v1/query?expr=&from=&to=&step=\n")
	if d.hist != nil {
		fmt.Fprintf(w, "/api/v1/query?pid=&from=&to=&step=\n")
	}
}

// events serves the daemon's event registry — defaults plus any
// -config <event> definitions — with the backend's support status, the
// per-event slot cost, the backend's counter capacity (0 = unlimited
// or kernel-multiplexed), and the set of events the session attaches,
// in deterministic name order.
func (d *daemon) events(w http.ResponseWriter, _ *http.Request) {
	backend, capacity := d.mon.BackendCapacity()
	writeJSON(w, http.StatusOK, struct {
		Backend  string             `json:"backend"`
		Capacity int                `json:"capacity"`
		Events   []tiptop.EventInfo `json:"events"`
	}{backend, capacity, d.mon.EventList()})
}

func (d *daemon) snapshot(w http.ResponseWriter, _ *http.Request) {
	// "machine_name": the embedded Snapshot already owns the "machine"
	// key for the machine-wide aggregate, and encoding/json silently
	// drops the deeper of two same-named fields.
	writeJSON(w, http.StatusOK, struct {
		MachineName     string  `json:"machine_name"`
		IntervalSeconds float64 `json:"interval_s"`
		*tiptop.Snapshot
	}{d.mon.Machine(), d.mon.Interval().Seconds(), d.rec.Snapshot()})
}

func (d *daemon) history(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("pid")
	if q == "" {
		writeJSON(w, http.StatusOK, struct {
			PIDs []int `json:"pids"`
		}{d.rec.PIDs()})
		return
	}
	pid, err := strconv.Atoi(q)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad pid %q", q))
		return
	}
	series := d.rec.History(pid)
	if series == nil {
		writeJSONError(w, http.StatusNotFound, fmt.Sprintf("pid %d was never observed", pid))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		PID    int                    `json:"pid"`
		Series []tiptop.HistorySeries `json:"series"`
	}{pid, series})
}

// compactSummary renders one compaction pass for the startup log line:
// total input segments and the byte ratio achieved across tiers.
func compactSummary(res *tiptop.CompactionResult) string {
	var segs int
	var before, after int64
	for _, t := range res.Tiers {
		segs += t.Segments
		before += t.BytesBefore
		after += t.BytesAfter
	}
	if segs == 0 {
		return "nothing to rewrite"
	}
	return fmt.Sprintf("%d segments rewritten, %d -> %d bytes", segs, before, after)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

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
//	/api/v1/query           range queries over recorded history (the
//	                        store, or the live rings without -store):
//	                        ?expr=&from=&to=&step= expressions and
//	                        ?pid=&from=&to=&step= raw series, JSON or
//	                        &format=openmetrics text
//
// There is one daemon and two sample sources: the local sampling loop,
// or — with -join — a fleet of N remote tiptopd agents streamed and
// merged per machine. The source is all that differs: both publish
// into one remote.Server, persist into stores opened (and, with
// -compact, compacted) by one routine — the solo store, or one per
// agent — and are served by one handler and one
// listen/serve/signal/shutdown loop. An aggregator serves the merged,
// per-machine-labelled state on /metrics, /api/v1/snapshot and
// /api/v1/stream, routes /api/v1/query by ?agent=label (or merges with
// ?agent=*), and replaces /api/v1/history, /api/v1/events and
// /api/v1/sample — which need one monitor — with /api/v1/agents.
// `tiptop -connect` attaches to agents, not to aggregators — the
// aggregator's stream interleaves machines.
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
//	                               merging of sealed segments (every
//	                               agent's store under -join)
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
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tiptop"
	"tiptop/internal/config"
	"tiptop/internal/core"
	"tiptop/internal/history"
	"tiptop/internal/remote"
	"tiptop/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiptopd:", err)
		os.Exit(1)
	}
}

// options is one resolved command line: the flags, overlaid with what
// the -config file sets.
type options struct {
	shared     *config.Flags
	cfg        tiptop.Config
	addr       string
	peers      []string // -join / join=, split; empty = monitor locally
	historyCap int
	window     time.Duration
}

func resolve(args []string) (*options, error) {
	fs := flag.NewFlagSet("tiptopd", flag.ContinueOnError)
	// -d -n -screen -sort -u -sim -scale -system-wide -counters
	// -config -wire -fsync are shared with tiptop.
	o := &options{shared: config.BindFlags(fs)}
	fs.StringVar(&o.addr, "addr", ":9412", "HTTP listen address")
	fs.IntVar(&o.historyCap, "history", 0, "points retained per task (0 = default 600)")
	fs.DurationVar(&o.window, "window", 0, "windowed-rate horizon, capped at 128 refreshes (0 = default 1m)")
	join := fs.String("join", "", "aggregate remote tiptopd agents (comma-separated host:port list) instead of monitoring locally")
	var (
		storeDir  = fs.String("store", "", "durable history store directory: recover on boot, tee every sample, serve /api/v1/query (one subdirectory per agent with -join)")
		retention = fs.Duration("retention", 0, "store age horizon, e.g. 72h (0 = bounded by the byte budget only)")
		budgetStr = fs.String("budget", "", "store on-disk byte budget, e.g. 64MB (default 64MB)")
		compact   = fs.Duration("compact", 0, "merge the store's sealed segments at startup and then every period, e.g. 1h (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.historyCap < 0 {
		return nil, fmt.Errorf("history capacity cannot be negative, got -history %d", o.historyCap)
	}
	if o.window < 0 {
		return nil, fmt.Errorf("rate window cannot be negative, got -window %v", o.window)
	}
	var budget int64
	if *budgetStr != "" {
		b, err := store.ParseBytes(*budgetStr)
		if err != nil {
			return nil, fmt.Errorf("bad -budget: %w", err)
		}
		budget = b
	}
	if *compact < 0 {
		return nil, fmt.Errorf("compaction period cannot be negative, got -compact %v", *compact)
	}
	cfg, parsed, err := tiptop.ConfigFromFlags(o.shared, tiptop.Config{
		StoreDir:       *storeDir,
		StoreRetention: *retention,
		StoreBudget:    budget,
		StoreCompact:   *compact,
	})
	if err != nil {
		return nil, err
	}
	o.cfg = cfg
	if parsed != nil {
		// The options only this command understands; like the shared
		// ones, what the file sets overrides the flag.
		if parsed.Options.History > 0 {
			o.historyCap = parsed.Options.History
		}
		if parsed.Options.Listen != "" {
			o.addr = parsed.Options.Listen
		}
		if parsed.Options.Join != "" {
			*join = parsed.Options.Join
		}
	}
	if o.peers = config.SplitPeers(*join); *join != "" && len(o.peers) == 0 {
		return nil, fmt.Errorf("-join %q names no agents", *join)
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := resolve(args)
	if err != nil {
		return err
	}
	shared, cfg := o.shared, o.cfg
	if err := cfg.Validate(); err != nil {
		return err
	}

	// The one thing the two modes differ in is where samples come from.
	// A solo daemon always serves both stream encodings; -wire only
	// selects how -join dials agents.
	d := &daemon{stores: map[string]*tiptop.Store{}, named: cfg.NamedExprs()}
	defer d.close()
	if len(o.peers) > 0 {
		if shared.Sim != "" {
			return fmt.Errorf("-join aggregates remote agents and cannot monitor -sim %s itself", shared.Sim)
		}
		opts := remote.FleetOptions{
			History: history.Options{Capacity: o.historyCap, Window: o.window},
			// The encoding the aggregator negotiates with each agent:
			// binary unless -wire json, falling back per agent against
			// daemons that predate it.
			Wire: shared.Wire,
		}
		if cfg.StoreDir != "" {
			// Every agent's stream persists into its own store.
			opts.Tee = func(label string) (core.Observer, error) {
				return d.openStore(label, agentStoreDir(cfg.StoreDir, label), cfg, stdout)
			}
		}
		if d.fleet, err = remote.NewFleet(o.peers, opts); err != nil {
			return err
		}
		d.srv = d.fleet.Server()
	} else {
		// Without -sim: the real machine, or the simulated data-center
		// node where perf_event is unavailable.
		var simulated bool
		if d.mon, simulated, err = tiptop.OpenMonitor(shared.Sim, "datacenter", shared.Scale, cfg); err != nil {
			return err
		}
		if simulated {
			d.pace = d.mon.Interval()
		}
		d.rec = tiptop.NewRecorder(tiptop.RecorderOptions{Capacity: o.historyCap, Window: o.window})
		d.mon.Subscribe(d.rec)
		if cfg.StoreDir != "" {
			st, err := d.openStore("", cfg.StoreDir, cfg, stdout)
			if err != nil {
				return err
			}
			d.rec.Tee(st)
		}
		d.srv = remote.NewServer(d.rec.WriteOpenMetrics)
	}
	return d.serve(o.addr, shared.Iterations, cfg.StoreCompact, stdout)
}

// daemon couples one sample source to the HTTP handlers: a local
// monitor and its recorder, or — under -join — a fleet of remote
// agents. Exactly one of mon and fleet is set. The source's goroutines
// are the only ones touching the monitor or the agent streams; the
// handlers read exclusively through the recorders (whose locks make
// scrapes safe against the live samplers) and the remote.Server the
// source publishes into.
type daemon struct {
	mon *tiptop.Monitor
	rec *tiptop.Recorder
	// pace is the real-time pause between refreshes of a simulated
	// backend, whose Sample advances virtual time instantly (the real
	// backend sleeps inside Sample itself).
	pace  time.Duration
	fleet *remote.Fleet
	// srv owns the wire-protocol surface: the stream hub, the latest
	// wire sample, and the cached, ETag'd /metrics body (one OpenMetrics
	// encode per published refresh, however many scrapers).
	srv *remote.Server
	// stores are the durable stores behind /api/v1/query: the solo
	// daemon's one store under the empty label, an aggregator's by agent
	// label (?agent=label selects one, ?agent=* merges them); empty
	// without -store.
	stores map[string]*tiptop.Store
	// named maps stored expression names (config <expr> elements) to
	// their sources for /api/v1/query?expr=<name>.
	named map[string]string
}

// agentStoreDir maps an agent label to its store directory (the colon
// of host:port is awkward in file names).
func agentStoreDir(base, label string) string {
	return filepath.Join(base, strings.NewReplacer(":", "_", "/", "_").Replace(label))
}

// openStore opens (recovering) the store in dir, registers it under
// label and, with -compact, runs the startup compaction pass — the one
// routine behind the solo store and every per-agent store.
func (d *daemon) openStore(label, dir string, cfg tiptop.Config, stdout io.Writer) (*tiptop.Store, error) {
	for other, st := range d.stores {
		if st.Dir() == dir {
			// Sanitization ("host:9412" → "host_9412") must not silently
			// point two agents' writers at one segment chain.
			return nil, fmt.Errorf("agents %q and %q map to the same store directory %s", other, label, dir)
		}
	}
	st, err := tiptop.OpenStore(dir, cfg.StoreOptions())
	if err != nil {
		return nil, err
	}
	d.stores[label] = st
	fmt.Fprintf(stdout, "tiptopd: store %s: %d records recovered (%d bytes, history to t=%s)\n",
		dir, st.Records(), st.DiskUsage(), st.LastTime().Truncate(time.Second))
	if cfg.StoreCompact > 0 {
		// One pass over the recovered history now, then periodically
		// (serve): long-running daemons keep their segments merged
		// without an operator cron job.
		res, err := st.Compact(tiptop.CompactOptions{})
		if err != nil {
			return nil, fmt.Errorf("store compaction: %w", err)
		}
		fmt.Fprintf(stdout, "tiptopd: store compacted: %s\n", compactSummary(res))
	}
	return st, nil
}

// storeErr reports the first append error any store has latched (the
// tee cannot return them). The source checks it as it publishes: a
// daemon whose durable history has stopped must fail loudly, not keep
// serving while the past silently goes missing.
func (d *daemon) storeErr() error {
	for _, st := range d.stores {
		if err := st.Err(); err != nil {
			return fmt.Errorf("store %s: %w", st.Dir(), err)
		}
	}
	return nil
}

// close releases the source and seals the stores. Close returns a
// store's first latched append error; surface it instead of exiting
// silently incomplete.
func (d *daemon) close() {
	if d.mon != nil {
		d.mon.Close()
	}
	for _, st := range d.stores {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tiptopd: store %s: %v\n", st.Dir(), err)
		}
	}
}

// serve listens on addr and runs the daemon until its source finishes
// (a finite -n, a drained scenario, a sampling or store failure), the
// HTTP server fails, or an interrupt arrives.
func (d *daemon) serve(addr string, n int, compactEvery time.Duration, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if d.fleet != nil {
		labels := d.fleet.Labels()
		fmt.Fprintf(stdout, "tiptopd: aggregating %d agents (%s), serving http://%s/metrics\n", len(labels), strings.Join(labels, ", "), ln.Addr())
	} else {
		fmt.Fprintf(stdout, "tiptopd: monitoring %s, serving http://%s/metrics\n", d.mon.Machine(), ln.Addr())
	}

	srv := &http.Server{Handler: d.handler()}
	stop := make(chan struct{})
	sourceDone := make(chan error, 1)
	go func() { sourceDone <- d.run(stop, n) }()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		if compactEvery > 0 {
			d.compactEvery(compactEvery, stop)
		}
	}()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)
	defer signal.Stop(interrupted)

	sourceRunning, serving := true, true
	select {
	case err = <-sourceDone:
		sourceRunning = false
	case err = <-serveDone:
		serving = false
	case <-interrupted:
	}
	close(stop)
	if sourceRunning {
		<-sourceDone
	}
	if serving {
		// Disconnect stream subscribers first: they are active requests
		// Shutdown would otherwise wait out.
		d.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
	}
	<-compactDone
	return err
}

// compactEvery merges every store's sealed segments each period until
// stop closes. Appends and queries continue during a pass; a failed
// pass is logged, not fatal — the store keeps serving its current
// segments.
func (d *daemon) compactEvery(period time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, st := range d.stores {
				if _, err := st.Compact(tiptop.CompactOptions{}); err != nil {
					fmt.Fprintf(os.Stderr, "tiptopd: store %s: compaction: %v\n", st.Dir(), err)
				}
			}
		}
	}
}

// run drives the sample source until stop closes or, with n > 0, n
// refreshes have been published: the local sampling loop, or the
// fleet's agent streams (where n counts samples across all agents —
// the bounded mode tests and demos use).
func (d *daemon) run(stop <-chan struct{}, n int) error {
	if d.fleet == nil {
		return d.loop(stop, n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.fleet.Start(ctx)
	defer func() {
		cancel()
		d.fleet.Wait()
	}()
	period := time.Second
	if n > 0 {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for n <= 0 || d.srv.Version() < uint64(n) {
		select {
		case <-stop:
			return nil
		case <-tick.C:
			if err := d.storeErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// publish converts one refresh to the wire format and hands it to the
// stream hub and caches — encoded at most once per format, by the
// first reader that wants it rather than here, and shared by every
// subscriber and scraper.
func (d *daemon) publish(s *tiptop.Sample) error {
	if err := d.storeErr(); err != nil {
		return err
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
	// With stores: raw and expression queries over durable history.
	// Without, a solo daemon still answers expression queries from its
	// recorder's live rings; only raw range queries need a store.
	mux.Handle("GET /api/v1/query", tiptop.NamedExprHandler(d.named, tiptop.FleetQueryHandler(d.stores, d.rec)))
	// /metrics and /api/v1/stream come from the wire server (cached,
	// ETag'd, fan-out), as does a solo daemon's /api/v1/sample — an
	// aggregator's latest frame is one arbitrary agent's, so it serves
	// /api/v1/agents in its place, and has no single monitor to answer
	// /api/v1/history or /api/v1/events from.
	if d.fleet != nil {
		mux.HandleFunc("GET /api/v1/agents", d.agents)
		mux.HandleFunc("GET /api/v1/stream", d.srv.Hub().ServeStream)
		mux.HandleFunc("GET /metrics", d.srv.HandleMetrics)
		return mux
	}
	mux.HandleFunc("GET /api/v1/history", d.history)
	mux.HandleFunc("GET /api/v1/events", d.events)
	d.srv.Register(mux)
	return mux
}

func (d *daemon) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d.fleet != nil {
		fmt.Fprintf(w, "tiptopd aggregating %s\n\n/metrics\n/api/v1/snapshot\n/api/v1/agents\n/api/v1/stream\n",
			strings.Join(d.fleet.Labels(), ", "))
		if len(d.stores) > 0 {
			fmt.Fprintf(w, "/api/v1/query?agent=*&expr=&from=&to=&step=\n")
			fmt.Fprintf(w, "/api/v1/query?agent=&pid=&from=&to=&step=\n")
		}
		return
	}
	fmt.Fprintf(w, "tiptopd monitoring %s\n\n/metrics\n/api/v1/snapshot\n/api/v1/history?pid=N\n/api/v1/events\n/api/v1/sample\n/api/v1/stream\n", d.mon.Machine())
	fmt.Fprintf(w, "/api/v1/query?expr=&from=&to=&step=\n/api/v1/query?pid=&from=&to=&step=\n")
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

func (d *daemon) agents(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Agents []remote.AgentStatus `json:"agents"`
	}{d.fleet.Snapshot().Agents})
}

func (d *daemon) snapshot(w http.ResponseWriter, _ *http.Request) {
	if d.fleet != nil {
		writeJSON(w, http.StatusOK, d.fleet.Snapshot())
		return
	}
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

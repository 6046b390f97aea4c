package tiptop

// The daemon: everything tiptopd serves, as one value; cmd/tiptopd is
// its flag front end.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/query"
	"tiptop/internal/remote"
)

// DaemonOptions are what a Daemon takes beside its Config, one tiptopd
// flag each.
type DaemonOptions struct {
	// Join lists the agents to aggregate (-join, "host:port" or URLs);
	// empty monitors locally.
	Join []string
	// Sim and Scale pick a solo daemon's scenario (-sim, -scale); an
	// empty Sim is the real machine, falling back to "datacenter" where
	// perf_event is unavailable.
	Sim   string
	Scale float64
	// History and Window size the recorders, the solo one or one per
	// agent: points retained per task (-history) and the windowed-rate
	// horizon (-window); 0 takes RecorderOptions' defaults.
	History int
	Window  time.Duration
	// Wire selects how Join dials agents (-wire): "" or "binary", or
	// "json". A solo daemon serves both encodings regardless.
	Wire string
	// Refreshes, when positive, ends Run after that many refreshes past
	// the attach pass (-n); under Join, samples across all agents.
	Refreshes int
	// Log receives the store and serving banners (nil discards them).
	Log io.Writer
}

// FleetSnapshot is an aggregator's merged state: agent health, the
// cluster-wide roll-up and every machine's snapshot.
type FleetSnapshot = remote.FleetSnapshot

// Daemon couples one sample source — a local monitor and its recorder,
// or under Join a fleet of remote agents streamed and merged per
// machine — to the wire server, the durable stores and the HTTP routes,
// which are the same for both. The source's goroutines are the only
// ones touching the monitor or the agent streams; the handlers read
// through the recorders (whose locks make scrapes safe against the
// samplers) and the wire server the source publishes into.
type Daemon struct {
	cfg Config
	opt DaemonOptions
	// Exactly one of mon and fleet is set.
	mon      *Monitor
	rec      *Recorder
	attached bool // the monitor's attach pass (SampleNow) is done
	// pace is the real-time pause between refreshes of a simulated
	// backend, whose Sample advances virtual time instantly.
	pace  time.Duration
	fleet *remote.Fleet
	// srv owns the stream hub, the latest wire sample and the cached,
	// ETag'd /metrics body (one encode per refresh).
	srv *remote.Server
	// stores are the durable stores behind /api/v1/query: a solo
	// daemon's under "", an aggregator's by agent label.
	stores map[string]*Store
}

// NewDaemon opens the monitor, or joins the agents, and the store in
// cfg.StoreDir (recovered and, with cfg.StoreCompact, compacted; under
// Join one subdirectory per agent). Nothing samples or serves before
// Run or Refresh.
func NewDaemon(cfg Config, opt DaemonOptions) (_ *Daemon, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	d := &Daemon{cfg: cfg, opt: opt, stores: map[string]*Store{}}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	ro := RecorderOptions{Capacity: opt.History, Window: opt.Window}
	if len(opt.Join) > 0 {
		if opt.Sim != "" {
			return nil, fmt.Errorf("-join aggregates remote agents and cannot monitor -sim %s itself", opt.Sim)
		}
		fo := remote.FleetOptions{History: ro, Wire: opt.Wire}
		if cfg.StoreDir != "" {
			// Every agent's stream persists into its own store.
			fo.Tee = func(label string) (core.Observer, error) {
				return d.openStore(label, agentStoreDir(cfg.StoreDir, label))
			}
		}
		if d.fleet, err = remote.NewFleet(opt.Join, fo); err != nil {
			return nil, err
		}
		d.srv = d.fleet.Server()
		return d, nil
	}
	var simulated bool
	if d.mon, simulated, err = OpenMonitor(opt.Sim, "datacenter", opt.Scale, cfg); err != nil {
		return nil, err
	}
	if simulated {
		d.pace = d.mon.Interval()
	}
	d.rec = NewRecorder(ro)
	d.mon.Subscribe(d.rec)
	d.srv = remote.NewServer(d.rec.WriteOpenMetrics)
	if cfg.StoreDir != "" {
		st, err := d.openStore("", cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		d.rec.Tee(st)
	}
	return d, nil
}

// agentStoreDir maps an agent label to its store directory (the colon
// of host:port is awkward in file names).
func agentStoreDir(base, label string) string {
	return filepath.Join(base, strings.NewReplacer(":", "_", "/", "_").Replace(label))
}

// openStore opens (recovering) the store in dir, registers it under
// label and, with compaction on, runs the startup pass — the one
// routine behind the solo store and every per-agent store.
func (d *Daemon) openStore(label, dir string) (*Store, error) {
	for other, st := range d.stores {
		if st.Dir() == dir {
			// Sanitization ("host:9412" → "host_9412") must not silently
			// point two agents' writers at one segment chain.
			return nil, fmt.Errorf("agents %q and %q map to the same store directory %s", other, label, dir)
		}
	}
	st, err := OpenStore(dir, d.cfg.StoreOptions())
	if err != nil {
		return nil, err
	}
	d.stores[label] = st
	fmt.Fprintf(d.opt.Log, "tiptopd: store %s: %d records recovered (%d bytes, history to t=%s)\n",
		dir, st.Records(), st.DiskUsage(), st.LastTime().Truncate(time.Second))
	if d.cfg.StoreCompact > 0 {
		// One pass over the recovered history now, then periodically
		// (Run): long-running daemons keep their segments merged without
		// an operator cron job.
		res, err := st.Compact(CompactOptions{})
		if err != nil {
			return nil, fmt.Errorf("store compaction: %w", err)
		}
		fmt.Fprintf(d.opt.Log, "tiptopd: store compacted: %s\n", compactSummary(res))
	}
	return st, nil
}

// compactSummary renders one compaction pass for the startup log line:
// total input segments and the byte ratio achieved across tiers.
func compactSummary(res *CompactionResult) string {
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

// Machine describes what a solo daemon monitors; empty under Join.
func (d *Daemon) Machine() string {
	if d.mon == nil {
		return ""
	}
	return d.mon.Machine()
}

// Recorder returns a solo daemon's recorder; nil under Join.
func (d *Daemon) Recorder() *Recorder { return d.rec }

// Stores returns the durable stores: a solo daemon's under "", an
// aggregator's by agent label.
func (d *Daemon) Stores() map[string]*Store { return maps.Clone(d.stores) }

// Refreshes counts the samples published: the daemon's, or every agent's.
func (d *Daemon) Refreshes() uint64 { return d.srv.Version() }

// FleetSnapshot is the cluster view an aggregator's /api/v1/snapshot
// serves; nil for a solo daemon.
func (d *Daemon) FleetSnapshot() *FleetSnapshot {
	if d.fleet == nil {
		return nil
	}
	return d.fleet.Snapshot()
}

// storeErr reports the first append error any store has latched (the
// tee cannot return them). The source checks it as it publishes: a
// daemon whose durable history has stopped must fail loudly, not keep
// serving while the past silently goes missing.
func (d *Daemon) storeErr() error {
	for _, st := range d.stores {
		if err := st.Err(); err != nil {
			return fmt.Errorf("store %s: %w", st.Dir(), err)
		}
	}
	return nil
}

// Close disconnects the stream subscribers, releases the monitor and
// seals the stores, returning every failure among them — a store's
// first latched append error included. Call it once Run has returned.
func (d *Daemon) Close() error {
	var errs []error
	if d.srv != nil {
		d.srv.Close()
	}
	if d.mon != nil {
		errs = append(errs, d.mon.Close())
	}
	for _, st := range d.stores {
		if err := st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store %s: %w", st.Dir(), err))
		}
	}
	return errors.Join(errs...)
}

// Run serves the daemon on ln and drives its source until ctx ends, the
// source finishes (DaemonOptions.Refreshes, a drained scenario, a
// sampling or store failure) or serving fails, compacting the stores
// every Config.StoreCompact meanwhile. It returns the source's or the
// server's failure, nil when stopped. Run once, then Close.
func (d *Daemon) Run(ctx context.Context, ln net.Listener) error {
	if d.fleet != nil {
		labels := d.fleet.Labels()
		fmt.Fprintf(d.opt.Log, "tiptopd: aggregating %d agents (%s), serving http://%s/metrics\n", len(labels), strings.Join(labels, ", "), ln.Addr())
	} else {
		fmt.Fprintf(d.opt.Log, "tiptopd: monitoring %s, serving http://%s/metrics\n", d.mon.Machine(), ln.Addr())
	}
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	hs := &http.Server{Handler: d.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	sourceDone := make(chan error, 1)
	go func() { sourceDone <- d.source(ctx) }()
	compactDone := make(chan struct{})
	go func() { d.compactEvery(ctx); close(compactDone) }()

	var err error
	select {
	case err = <-sourceDone:
		stop()
		// Disconnect stream subscribers first: they are active requests
		// Shutdown would otherwise wait out.
		d.srv.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
		<-serveDone
	case err = <-serveDone:
		stop()
		<-sourceDone
	}
	<-compactDone
	return err
}

// compactEvery merges every store's sealed segments each
// Config.StoreCompact (if set) until ctx ends. Appends and queries
// continue during a pass; a failed pass is logged, not fatal — the
// store keeps serving its current segments.
func (d *Daemon) compactEvery(ctx context.Context) {
	if d.cfg.StoreCompact <= 0 {
		return
	}
	tick := time.NewTicker(d.cfg.StoreCompact)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, st := range d.stores {
				if _, err := st.Compact(CompactOptions{}); err != nil {
					fmt.Fprintf(os.Stderr, "tiptopd: store %s: compaction: %v\n", st.Dir(), err)
				}
			}
		}
	}
}

// source drives the sample source until ctx ends or, with Refreshes,
// that many have been published: the monitor — the attach pass, then
// refreshes paced in real time on a simulated backend — or the agents'
// streams (where the count spans all agents).
func (d *Daemon) source(ctx context.Context) error {
	if d.fleet == nil {
		for i := 0; d.opt.Refreshes <= 0 || i <= d.opt.Refreshes; i++ {
			if ctx.Err() != nil {
				return nil
			}
			if err := d.Refresh(); err != nil {
				return err
			}
			if i > 0 && d.pace > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(d.pace):
				}
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	d.fleet.Start(ctx)
	defer func() {
		cancel()
		d.fleet.Wait()
	}()
	period := time.Second
	if d.opt.Refreshes > 0 {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for d.opt.Refreshes <= 0 || d.srv.Version() < uint64(d.opt.Refreshes) {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if err := d.storeErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Refresh takes one sample — the attach pass first, then one interval
// per call — and publishes it; a store that has latched an append error
// fails it. Run loops over it; call it yourself only to drive a daemon
// you serve through Handler, never while Run runs (the monitor is not
// safe for concurrent use). Under Join the agents sample, and it fails.
func (d *Daemon) Refresh() error {
	if d.mon == nil {
		return errors.New("tiptop: an aggregating daemon samples through its agents, not Refresh")
	}
	sample := d.mon.Sample
	if !d.attached {
		sample, d.attached = d.mon.SampleNow, true
	}
	s, err := sample()
	if err != nil {
		return err
	}
	if err := d.storeErr(); err != nil {
		return err
	}
	return d.srv.Publish(d.mon.WireSample(s))
}

// route is one endpoint: its mux pattern, whether this daemon serves
// it, its handler, and the lines the index page lists for it (nil: the
// pattern's path).
type route struct {
	pattern string
	on      bool
	h       http.HandlerFunc
	index   []string
}

// Handler returns the daemon's HTTP surface: the index page at / and
// every route of one table, in index-page order. An aggregator's latest
// frame is one arbitrary agent's, so it serves /api/v1/agents in place
// of /api/v1/sample, and has no one monitor for /api/v1/history or
// events. Run serves it; serve it yourself to drive the daemon with
// Refresh.
func (d *Daemon) Handler() http.Handler {
	solo := d.fleet == nil
	// With stores: raw and expression queries over durable history.
	// Without, a solo daemon answers both from its recorder's live
	// rings; an aggregator lists the query forms only with stores.
	q := []string{"/api/v1/query?expr=&from=&to=&step=", "/api/v1/query?pid=&from=&to=&step="}
	if !solo {
		q = []string{}
		if len(d.stores) > 0 {
			q = []string{"/api/v1/query?agent=*&expr=&from=&to=&step=", "/api/v1/query?agent=&pid=&from=&to=&step="}
		}
	}
	routes := slices.DeleteFunc([]route{
		{"GET /metrics", true, d.srv.HandleMetrics, nil},
		{"GET /api/v1/snapshot", true, d.snapshot, nil},
		{"GET /api/v1/history", solo, d.history, []string{"/api/v1/history?pid=N"}},
		{"GET /api/v1/events", solo, d.events, nil},
		{"GET /api/v1/sample", solo, d.srv.HandleSample, nil},
		{"GET /api/v1/agents", !solo, d.agents, nil},
		{"GET /api/v1/stream", true, d.srv.Hub().ServeStream, nil},
		{"GET /api/v1/query", true, query.NamedExprs(d.cfg.namedExprs(), queryHandler(d.stores, d.rec)).ServeHTTP, q},
	}, func(rt route) bool { return !rt.on })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if solo {
			fmt.Fprintf(w, "tiptopd monitoring %s\n\n", d.mon.Machine())
		} else {
			fmt.Fprintf(w, "tiptopd aggregating %s\n\n", strings.Join(d.fleet.Labels(), ", "))
		}
		for _, rt := range routes {
			lines := rt.index
			if lines == nil {
				lines = []string{strings.TrimPrefix(rt.pattern, "GET ")}
			}
			for _, line := range lines {
				fmt.Fprintln(w, line)
			}
		}
	})
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, rt.h)
	}
	return mux
}

// events serves the event registry in name order with the backend's
// support and slot cost per event, its counter capacity (0 = unlimited
// or kernel-multiplexed) and the attached set.
func (d *Daemon) events(w http.ResponseWriter, _ *http.Request) {
	backend, capacity := d.mon.BackendCapacity()
	writeJSON(w, http.StatusOK, struct {
		Backend  string      `json:"backend"`
		Capacity int         `json:"capacity"`
		Events   []EventInfo `json:"events"`
	}{backend, capacity, d.mon.EventList()})
}

func (d *Daemon) agents(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Agents []remote.AgentStatus `json:"agents"`
	}{d.fleet.Snapshot().Agents})
}

func (d *Daemon) snapshot(w http.ResponseWriter, _ *http.Request) {
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
		*Snapshot
	}{d.mon.Machine(), d.mon.Interval().Seconds(), d.rec.Snapshot()})
}

func (d *Daemon) history(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("pid")
	if q == "" {
		writeJSON(w, http.StatusOK, struct {
			PIDs []int `json:"pids"`
		}{d.rec.PIDs()})
		return
	}
	pid, err := strconv.Atoi(q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad pid %q", q)})
		return
	}
	series := d.rec.History(pid)
	if series == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("pid %d was never observed", pid)})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		PID    int             `json:"pid"`
		Series []HistorySeries `json:"series"`
	}{pid, series})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

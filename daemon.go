package tiptop

// The daemon: everything tiptopd serves, as one value; cmd/tiptopd is
// its flag front end.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"tiptop/internal/hpm"
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

// Daemon serves what its machines record: a solo daemon's one machine,
// fed by the local monitor, or under Join one machine per agent, each
// fed by that agent's stream. A machine is a label, a recorder and a
// durable store; the wire server, the HTTP routes and the exposition
// are the same for both modes. Only the goroutine feeding a machine
// touches the monitor or that agent's stream; the handlers read through
// the recorders (whose locks make scrapes safe against the feeders) and
// the wire server every machine publishes into.
type Daemon struct {
	cfg Config
	opt DaemonOptions
	// machines in join order; a solo daemon's one is labelled "".
	machines []*node
	// mon feeds a solo daemon's machine; nil under Join.
	mon      *Monitor
	attached bool // the monitor's attach pass (SampleNow) is done
	// pace is the real-time pause between refreshes of a simulated
	// backend, whose Sample advances virtual time instantly.
	pace time.Duration
	// target is the published-refresh count that ends Run (0: none).
	target uint64
	// redial and timeout are the agent streams' re-dial pause and
	// silence slack (remote.Agent.Stream).
	redial, timeout time.Duration
	// metrics renders /metrics over every machine; srv owns the stream
	// hub, the latest wire sample and the cached, ETag'd /metrics body
	// (one encode per refresh).
	metrics exposition
	srv     *remote.Server
}

// node is one monitored machine: its label (an agent's host:port, ""
// for a solo daemon's own), its recorder, its store (nil without
// Config.StoreDir) and, under Join, the agent streaming it in.
type node struct {
	label string
	rec   *Recorder
	store *Store
	agent *remote.Agent
	// Touched only by the goroutine feeding an agent's machine: the
	// column set last pushed into the recorder, and the rebase of the
	// agent's clock (the last time observed and the offset added).
	cols         []string
	last, offset time.Duration
	observed     bool
}

// The agent streams' timing: the pause before re-dialing a lost agent,
// and the slack, past two of an agent's intervals, after which a silent
// one is given up on (also the wait for an agent not yet ready).
var (
	reconnectDelay = time.Second
	agentTimeout   = remote.DialTimeout
)

// errEnough ends a feed once the DaemonOptions.Refreshes target is
// published.
var errEnough = errors.New("tiptop: refresh target reached")

// NewDaemon opens the monitor, or prepares to join the agents, and the
// stores in cfg.StoreDir (recovered and, with cfg.StoreCompact,
// compacted; under Join one subdirectory per agent). Nothing samples or
// serves before Run or Refresh.
func NewDaemon(cfg Config, opt DaemonOptions) (_ *Daemon, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	d := &Daemon{cfg: cfg, opt: opt, redial: reconnectDelay, timeout: agentTimeout}
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
		for _, addr := range opt.Join {
			a, err := remote.NewAgent(addr, opt.Wire)
			if err != nil {
				return nil, err
			}
			if slices.ContainsFunc(d.machines, func(m *node) bool { return m.label == a.Label() }) {
				return nil, fmt.Errorf("duplicate agent %q", a.Label())
			}
			d.machines = append(d.machines, &node{label: a.Label(), rec: NewRecorder(ro), agent: a})
		}
		d.target = uint64(max(opt.Refreshes, 0))
	} else {
		var simulated bool
		if d.mon, simulated, err = OpenMonitor(opt.Sim, "datacenter", opt.Scale, cfg); err != nil {
			return nil, err
		}
		if simulated {
			d.pace = d.mon.Interval()
		}
		m := &node{rec: NewRecorder(ro)}
		d.mon.Subscribe(m.rec)
		d.machines = []*node{m}
		if opt.Refreshes > 0 {
			d.target = uint64(opt.Refreshes) + 1 // the attach pass, then -n
		}
	}
	for _, m := range d.machines {
		if cfg.StoreDir != "" {
			dir := cfg.StoreDir
			if m.agent != nil {
				dir = agentStoreDir(dir, m.label)
			}
			if err := d.openStore(m, dir); err != nil {
				return nil, err
			}
		}
		d.metrics.add(m.label, m.rec, m.agent)
	}
	d.srv = remote.NewServer(d.metrics.write)
	return d, nil
}

// agentStoreDir maps an agent label to its store directory (the colon
// of host:port is awkward in file names).
func agentStoreDir(base, label string) string {
	return filepath.Join(base, strings.NewReplacer(":", "_", "/", "_").Replace(label))
}

// openStore opens (recovering) the store in dir as m's, tees m's
// recorder into it and, with compaction on, runs the startup pass — the
// one routine behind every machine's store.
func (d *Daemon) openStore(m *node, dir string) error {
	for _, other := range d.machines {
		if other.store != nil && other.store.Dir() == dir {
			// Sanitization ("host:9412" → "host_9412") must not silently
			// point two agents' writers at one segment chain.
			return fmt.Errorf("agents %q and %q map to the same store directory %s", other.label, m.label, dir)
		}
	}
	st, err := OpenStore(dir, d.cfg.StoreOptions())
	if err != nil {
		return err
	}
	m.store = st
	m.rec.Tee(st)
	fmt.Fprintf(d.opt.Log, "tiptopd: store %s: %d records recovered (%d bytes, history to t=%s)\n",
		dir, st.Records(), st.DiskUsage(), st.LastTime().Truncate(time.Second))
	if d.cfg.StoreCompact > 0 {
		// One pass over the recovered history now, then periodically
		// (Run): long-running daemons keep their segments merged without
		// an operator cron job.
		res, err := st.Compact(CompactOptions{})
		if err != nil {
			return fmt.Errorf("store compaction: %w", err)
		}
		fmt.Fprintf(d.opt.Log, "tiptopd: store compacted: %s\n", compactSummary(res))
	}
	return nil
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
func (d *Daemon) Recorder() *Recorder {
	if d.mon == nil {
		return nil
	}
	return d.machines[0].rec
}

// Stores returns the durable stores: a solo daemon's under "", an
// aggregator's by agent label.
func (d *Daemon) Stores() map[string]*Store {
	out := map[string]*Store{}
	for _, m := range d.machines {
		if m.store != nil {
			out[m.label] = m.store
		}
	}
	return out
}

// Refreshes counts the samples published: the daemon's, or every agent's.
func (d *Daemon) Refreshes() uint64 { return d.srv.Version() }

// labels joins the agents' labels, in join order.
func (d *Daemon) labels() string {
	out := make([]string, len(d.machines))
	for i, m := range d.machines {
		out[i] = m.label
	}
	return strings.Join(out, ", ")
}

// FleetSnapshot is the cluster view an aggregator's /api/v1/snapshot
// serves; nil for a solo daemon. The cluster's live IPC is recomputed
// from the latest raw counter deltas of each connected agent
// (Σinstructions / Σcycles), not averaged from per-machine ratios.
func (d *Daemon) FleetSnapshot() *FleetSnapshot {
	if d.mon != nil {
		return nil
	}
	out := &FleetSnapshot{Machines: make(map[string]*Snapshot, len(d.machines))}
	var dInstr, dCycles uint64
	for _, m := range d.machines {
		st, last := m.agent.Status()
		out.Agents = append(out.Agents, st)
		snap := m.rec.Snapshot()
		out.Machines[m.label] = snap

		out.Cluster.Agents++
		out.Cluster.Instructions += snap.Machine.Instructions
		out.Cluster.Cycles += snap.Machine.Cycles
		out.Cluster.CacheMisses += snap.Machine.CacheMisses
		if st.Connected {
			out.Cluster.AgentsUp++
			out.Cluster.Tasks += snap.Machine.Tasks
			out.Cluster.CPUPct += snap.Machine.CPUPct
			if last != nil {
				for i := range last.Rows {
					dInstr += last.Rows[i].Events[hpm.EventInstructions]
					dCycles += last.Rows[i].Events[hpm.EventCycles]
				}
			}
		}
	}
	if dCycles > 0 {
		out.Cluster.IPC = float64(dInstr) / float64(dCycles)
	}
	slices.SortFunc(out.Agents, func(a, b remote.AgentStatus) int { return strings.Compare(a.Label, b.Label) })
	return out
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
	for _, st := range d.Stores() {
		if err := st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store %s: %w", st.Dir(), err))
		}
	}
	return errors.Join(errs...)
}

// Run serves the daemon on ln and feeds its machines until ctx ends, a
// feed finishes (DaemonOptions.Refreshes, a sampling or store failure)
// or serving fails, compacting the stores every Config.StoreCompact
// meanwhile. It returns the feed's or the server's failure, nil when
// stopped. Run once, then Close.
func (d *Daemon) Run(ctx context.Context, ln net.Listener) error {
	if d.mon == nil {
		fmt.Fprintf(d.opt.Log, "tiptopd: aggregating %d agents (%s), serving http://%s/metrics\n", len(d.machines), d.labels(), ln.Addr())
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
			for _, st := range d.Stores() {
				if _, err := st.Compact(CompactOptions{}); err != nil {
					fmt.Fprintf(os.Stderr, "tiptopd: store %s: compaction: %v\n", st.Dir(), err)
				}
			}
		}
	}
}

// source feeds every machine on a goroutine of its own until ctx ends
// or one feed finishes, and returns that feed's failure: nil once the
// refresh target is reached.
func (d *Daemon) source(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, len(d.machines))
	for _, m := range d.machines {
		go func() { done <- d.feed(ctx, m) }()
	}
	err := <-done
	cancel()
	for range len(d.machines) - 1 {
		<-done
	}
	if err == errEnough {
		return nil
	}
	return err
}

// feed drives one machine until ctx ends or it fails: an agent's stream,
// or the monitor — the attach pass, then refreshes paced in real time on
// a simulated backend.
func (d *Daemon) feed(ctx context.Context, m *node) error {
	if m.agent != nil {
		return m.agent.Stream(ctx, d.redial, d.timeout, func(ws *remote.Sample) error { return d.observe(m, ws) })
	}
	for i := 0; ctx.Err() == nil; i++ {
		if err := d.refresh(); err != nil {
			return err
		}
		if i > 0 && d.pace > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d.pace):
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
	if err := d.refresh(); err != errEnough {
		return err
	}
	return nil
}

func (d *Daemon) refresh() error {
	sample := d.mon.Sample
	if !d.attached {
		sample, d.attached = d.mon.SampleNow, true
	}
	s, err := sample() // the subscribed recorder records it, and tees it
	if err != nil {
		return err
	}
	return d.publish(d.machines[0], d.mon.WireSample(s))
}

// observe is where an agent's refresh enters the daemon, on the agent's
// stream goroutine: moved onto the machine's clock, recorded (and teed
// into the machine's store), then published tagged with its origin.
func (d *Daemon) observe(m *node, ws *remote.Sample) error {
	tagged := *ws
	tagged.Source = m.label
	m.rebase(&tagged)
	// Push the column set into the recorder only when it changes, so
	// the steady-state observe path stays allocation-light.
	if !slices.EqualFunc(m.cols, tagged.Columns, func(name string, c remote.Column) bool { return name == c.Name }) {
		m.cols = tagged.ColumnNames()
		m.rec.h.SetColumns(m.cols)
	}
	m.rec.h.Observe(tagged.CoreSample())
	return d.publish(m, &tagged)
}

// rebase keeps an agent machine's clock monotone: a refresh at or
// before the last one observed (the agent restarted, and its monitor
// clock with it) moves the machine's offset so that it lands one
// advertised interval after that one. Without it the store would nudge
// every such refresh 1 ms past its horizon until the agent's new clock
// caught up, and the recorder's rate window would see time go back.
func (m *node) rebase(ws *remote.Sample) {
	t := ws.Time() + m.offset
	if m.observed && t <= m.last {
		m.offset += m.last + ws.Interval() - t
		t = m.last + ws.Interval()
	}
	if m.offset != 0 {
		ws.TimeSeconds = t.Seconds()
	}
	m.last, m.observed = t, true
}

// publish is the one check after a machine recorded a refresh, made on
// the goroutine that recorded it: a store that has latched an append
// error fails the feed before the refresh is served; otherwise it is
// published, and the feed ends once the refresh target is reached. A
// refresh the hub refuses (a binary-wire agent can deliver a NaN) stays
// recorded but is not re-broadcast; from the local monitor it fails.
func (d *Daemon) publish(m *node, ws *remote.Sample) error {
	if m.store != nil {
		if err := m.store.Err(); err != nil {
			return fmt.Errorf("store %s: %w", m.store.Dir(), err)
		}
	}
	if err := d.srv.Publish(ws); err != nil && m.agent == nil {
		return err
	}
	if d.target > 0 && d.srv.Version() >= d.target {
		return errEnough
	}
	return nil
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
	solo := d.mon != nil
	// With stores: raw and expression queries over durable history.
	// Without, a solo daemon answers both from its recorder's live
	// rings; an aggregator lists the query forms only with stores.
	q := []string{"/api/v1/query?expr=&from=&to=&step=", "/api/v1/query?pid=&from=&to=&step="}
	if !solo {
		q = []string{}
		if d.cfg.StoreDir != "" {
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
		{"GET /api/v1/query", true, query.NamedExprs(d.cfg.namedExprs(), queryHandler(d.Stores(), d.Recorder())).ServeHTTP, q},
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
			fmt.Fprintf(w, "tiptopd aggregating %s\n\n", d.labels())
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
	}{d.FleetSnapshot().Agents})
}

func (d *Daemon) snapshot(w http.ResponseWriter, _ *http.Request) {
	if d.mon == nil {
		writeJSON(w, http.StatusOK, d.FleetSnapshot())
		return
	}
	// "machine_name": the embedded Snapshot already owns the "machine"
	// key for the machine-wide aggregate, and encoding/json silently
	// drops the deeper of two same-named fields.
	writeJSON(w, http.StatusOK, struct {
		MachineName     string  `json:"machine_name"`
		IntervalSeconds float64 `json:"interval_s"`
		*Snapshot
	}{d.mon.Machine(), d.mon.Interval().Seconds(), d.Recorder().Snapshot()})
}

func (d *Daemon) history(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("pid")
	if q == "" {
		writeJSON(w, http.StatusOK, struct {
			PIDs []int `json:"pids"`
		}{d.Recorder().PIDs()})
		return
	}
	pid, err := strconv.Atoi(q)
	if err != nil || pid < 0 {
		remote.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad pid %q", q))
		return
	}
	series := d.Recorder().History(pid)
	if series == nil {
		remote.WriteError(w, http.StatusNotFound, fmt.Sprintf("pid %d was never observed", pid))
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

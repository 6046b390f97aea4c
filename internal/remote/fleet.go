package remote

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/export"
	"tiptop/internal/history"
	"tiptop/internal/hpm"
)

// FleetOptions tune an aggregator.
type FleetOptions struct {
	// History configures each agent's recorder (ring depth, rate
	// window, series retention).
	History history.Options
	// ReconnectDelay is the pause before re-dialing a lost agent
	// (default 1 s).
	ReconnectDelay time.Duration
	// Tee, when set, is called once per agent and its result attached
	// to that agent's recorder (history.Recorder.Tee) — how tiptopd
	// -join -store persists every agent's stream into a per-agent
	// durable store. Returning an error aborts NewFleet.
	Tee func(label string) (core.Observer, error)
	// Wire selects the per-agent stream encoding: "" or "binary" asks
	// each agent for binary frames, falling back to SSE JSON per agent;
	// "json" forces SSE.
	Wire string
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.ReconnectDelay <= 0 {
		o.ReconnectDelay = time.Second
	}
	return o
}

// Fleet streams N remote agents and merges their refreshes into one
// cluster-wide view: a per-agent history.Recorder (so every query the
// single-machine daemon answers works per machine), a merged snapshot
// with cluster-level aggregates, a machine-labelled OpenMetrics
// exposition, and a re-broadcast SSE stream whose frames carry the
// originating agent in Sample.Source.
//
// Agents connect and churn independently: a lost agent keeps its
// recorded history, is re-dialed with backoff, and is marked down in
// the snapshot and the tiptop_agent_up metric meanwhile.
type Fleet struct {
	opt   FleetOptions
	peers []*peer
	// srv re-broadcasts every observed refresh and serves the merged
	// exposition, exactly as a solo daemon's server does for its one
	// machine; its version counts samples observed across all agents.
	srv *Server
	wg  sync.WaitGroup
	// scrape is what WriteOpenMetrics keeps between calls: one view per
	// peer and the encoder that renders them.
	scrape struct {
		sync.Mutex
		machines []export.FleetMachine // parallel to peers
		enc      export.Encoder
	}
}

type peer struct {
	label string
	url   string
	rec   *history.Recorder
	// colNames is the last column set pushed into the recorder; only
	// touched from the peer's streaming goroutine.
	colNames []string

	mu          sync.Mutex
	connected   bool
	lastErr     string
	samples     uint64
	lastRefresh uint64
	last        *Sample
}

// NewFleet creates an aggregator over the given agent addresses
// ("host:port" or full URLs). Each agent is labelled by its host:port;
// duplicate addresses are rejected.
func NewFleet(addrs []string, opt FleetOptions) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: fleet needs at least one agent")
	}
	f := &Fleet{opt: opt.withDefaults()}
	f.srv = NewServer(f.WriteOpenMetrics)
	seen := map[string]bool{}
	for _, a := range addrs {
		base, label, err := normalizeBase(a)
		if err != nil {
			return nil, err
		}
		if seen[label] {
			return nil, fmt.Errorf("remote: duplicate agent %q", label)
		}
		seen[label] = true
		p := &peer{
			label: label,
			url:   base,
			rec:   history.New(f.opt.History),
		}
		if f.opt.Tee != nil {
			o, err := f.opt.Tee(label)
			if err != nil {
				return nil, fmt.Errorf("remote: agent %s: %w", label, err)
			}
			p.rec.Tee(o)
		}
		f.peers = append(f.peers, p)
		f.scrape.machines = append(f.scrape.machines, export.FleetMachine{Label: label, View: new(history.View)})
	}
	return f, nil
}

// Start launches one streaming goroutine per agent. The goroutines stop
// when ctx is cancelled; Wait blocks until they have.
func (f *Fleet) Start(ctx context.Context) {
	for _, p := range f.peers {
		f.wg.Add(1)
		go func(p *peer) {
			defer f.wg.Done()
			f.runPeer(ctx, p)
		}(p)
	}
}

// Wait blocks until every agent goroutine has exited.
func (f *Fleet) Wait() { f.wg.Wait() }

// Server is the wire surface the fleet publishes through: the
// re-broadcast /api/v1/stream and the merged /metrics, cached per
// observed sample so scrape cost is independent of scrape rate; its
// version counts the samples observed across all agents.
func (f *Fleet) Server() *Server { return f.srv }

// Labels lists the agent labels in join order.
func (f *Fleet) Labels() []string {
	out := make([]string, len(f.peers))
	for i, p := range f.peers {
		out[i] = p.label
	}
	return out
}

// runPeer dials, streams and re-dials one agent until ctx ends.
func (f *Fleet) runPeer(ctx context.Context, p *peer) {
	for ctx.Err() == nil {
		client, err := dial(ctx, p.url, DialOptions{Wire: f.opt.Wire}, DialTimeout)
		if err != nil {
			p.setDown(err)
			if !sleepCtx(ctx, f.opt.ReconnectDelay) {
				return
			}
			continue
		}
		p.mu.Lock()
		p.connected = true
		p.lastErr = ""
		p.mu.Unlock()

		// Unblock the stream read when ctx is cancelled mid-connection.
		done := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				client.Close()
			case <-done:
			}
		}()

		f.observe(p, client.Latest())
		for {
			ws, err := client.Next()
			if err != nil {
				p.setDown(err)
				break
			}
			f.observe(p, ws)
		}
		close(done)
		client.Close()
		if !sleepCtx(ctx, f.opt.ReconnectDelay) {
			return
		}
	}
}

func (p *peer) setDown(err error) {
	p.mu.Lock()
	p.connected = false
	if err != nil && err != ErrClosed {
		p.lastErr = err.Error()
	}
	p.mu.Unlock()
}

// observe folds one agent refresh into the fleet: per-agent recorder,
// version bump, and a source-tagged re-broadcast. A frame with the same
// agent refresh counter as the last one (the stream's replay after a
// reconnect) is skipped so cumulative totals are not double-counted.
func (f *Fleet) observe(p *peer, ws *Sample) {
	if ws == nil {
		return
	}
	p.mu.Lock()
	if p.samples > 0 && ws.Refresh == p.lastRefresh {
		p.mu.Unlock()
		return
	}
	p.lastRefresh = ws.Refresh
	p.last = ws
	p.samples++
	p.mu.Unlock()

	// Push the column set into the recorder only when it changes, so
	// the steady-state observe path stays allocation-light.
	same := len(p.colNames) == len(ws.Columns)
	if same {
		for i := range ws.Columns {
			if p.colNames[i] != ws.Columns[i].Name {
				same = false
				break
			}
		}
	}
	if !same {
		p.colNames = ws.ColumnNames()
		p.rec.SetColumns(p.colNames)
	}
	p.rec.Observe(ws.CoreSample())

	// Re-broadcast under the server's own monotonic refresh counter (the
	// per-agent counters would interleave non-monotonically) with the
	// originating agent in Source. A sample the hub refuses (a
	// binary-wire agent can deliver a NaN) is recorded but not
	// re-broadcast.
	tagged := *ws
	tagged.Source = p.label
	_ = f.srv.Publish(&tagged)
}

// sleepCtx pauses for d, returning false when ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// AgentStatus is one agent's health in a fleet snapshot.
type AgentStatus struct {
	Label     string `json:"label"`
	URL       string `json:"url"`
	Connected bool   `json:"connected"`
	Samples   uint64 `json:"samples"`
	LastError string `json:"last_error,omitempty"`
}

// ClusterAggregate is the fleet-wide roll-up. Live fields (Tasks,
// CPUPct, IPC) sum only currently connected agents; cumulative counters
// include everything ever recorded.
type ClusterAggregate struct {
	Agents       int     `json:"agents"`
	AgentsUp     int     `json:"agents_up"`
	Tasks        int     `json:"tasks"`
	CPUPct       float64 `json:"cpu_pct"`
	IPC          float64 `json:"ipc"`
	Instructions uint64  `json:"instructions_total"`
	Cycles       uint64  `json:"cycles_total"`
	CacheMisses  uint64  `json:"cache_misses_total"`
}

// FleetSnapshot is the merged state of every agent, per-machine plus
// cluster-wide.
type FleetSnapshot struct {
	Agents   []AgentStatus                `json:"agents"`
	Cluster  ClusterAggregate             `json:"cluster"`
	Machines map[string]*history.Snapshot `json:"machines"`
}

// Snapshot merges the per-agent recorders into one cluster view. The
// cluster's live IPC is recomputed from the latest raw counter deltas
// of each connected agent (Σinstructions / Σcycles), not averaged from
// per-machine ratios.
func (f *Fleet) Snapshot() *FleetSnapshot {
	out := &FleetSnapshot{Machines: make(map[string]*history.Snapshot, len(f.peers))}
	var dInstr, dCycles uint64
	for _, p := range f.peers {
		p.mu.Lock()
		st := AgentStatus{
			Label:     p.label,
			URL:       p.url,
			Connected: p.connected,
			Samples:   p.samples,
			LastError: p.lastErr,
		}
		last := p.last
		p.mu.Unlock()
		out.Agents = append(out.Agents, st)
		snap := p.rec.Snapshot()
		out.Machines[p.label] = snap

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
	sort.Slice(out.Agents, func(i, j int) bool { return out.Agents[i].Label < out.Agents[j].Label })
	return out
}

// WriteOpenMetrics renders the merged, machine-labelled exposition.
// Concurrent calls take turns.
func (f *Fleet) WriteOpenMetrics(w io.Writer) error {
	s := &f.scrape
	s.Lock()
	defer s.Unlock()
	for i, p := range f.peers {
		p.mu.Lock()
		s.machines[i].Up = p.connected
		p.mu.Unlock()
		p.rec.View(s.machines[i].View)
	}
	return s.enc.WriteFleet(w, s.machines)
}

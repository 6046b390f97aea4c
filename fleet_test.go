package tiptop_test

// The aggregating Daemon against fake agents the tests publish into
// directly: the merged snapshot and exposition, a reconnect's replayed
// frame, the source-tagged re-broadcast, and agents that restart, stall,
// or go down and come back; and a RemoteMonitor following one that
// restarts.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/remote"
)

// fakeAgent is a minimal tiptopd: a wire server behind an HTTP server,
// published into by the test. stop takes it off the network; start
// brings it back on the same address as a new process would — a fresh
// wire server, its refresh counter back at zero.
type fakeAgent struct {
	t     *testing.T
	addr  string
	srv   *remote.Server
	ts    *httptest.Server
	polls atomic.Int64 // /api/v1/sample requests: one per dial
}

func newFakeAgent(t *testing.T) *fakeAgent {
	t.Helper()
	a := &fakeAgent{t: t, addr: "127.0.0.1:0"}
	a.start()
	a.addr = a.ts.Listener.Addr().String()
	t.Cleanup(a.stop)
	return a
}

func (a *fakeAgent) start() {
	a.t.Helper()
	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		a.t.Fatal(err)
	}
	srv := remote.NewServer(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/sample", func(w http.ResponseWriter, r *http.Request) {
		a.polls.Add(1)
		srv.HandleSample(w, r)
	})
	mux.HandleFunc("GET /api/v1/stream", srv.Hub().ServeStream)
	a.srv, a.ts = srv, &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
	a.ts.Start()
}

func (a *fakeAgent) stop() {
	if a.ts == nil {
		return
	}
	a.srv.Close() // ends the streams, which Close would otherwise wait out
	a.ts.Close()
	a.ts = nil
}

func (a *fakeAgent) host() string { return a.addr }

func (a *fakeAgent) publish(s *remote.Sample) {
	a.t.Helper()
	if err := a.srv.Publish(s); err != nil {
		a.t.Fatal(err)
	}
}

// agentSample builds a distinguishable sample per agent: two tasks, the
// first with 1000 cycles and 700 instructions.
func agentSample(agent int, t float64) *remote.Sample {
	return &remote.Sample{
		Machine:         fmt.Sprintf("agent-%d box", agent),
		IntervalSeconds: 2,
		TimeSeconds:     t,
		Columns: []remote.Column{
			{Name: "ipc", Header: "IPC", Width: 6, Format: "%6.2f"},
			{Name: "dmis", Header: "DMIS", Width: 6, Format: "%6.2f"},
		},
		Rows: []remote.Row{
			{
				PID: 100*agent + 1, TID: 100*agent + 1, User: fmt.Sprintf("user%d", agent), Command: "mcf", State: "R",
				CPUPct: 99.5, IPC: 0.7, Monitored: true, StartSeconds: 1.5,
				Values: []float64{0.7, 2.25},
				Events: map[string]uint64{"CYCLES": 1000, "INSTRUCTIONS": 700},
			},
			{
				PID: 100*agent + 2, User: "bob", Command: "idle", CPUPct: 0,
				Monitored: false, Values: []float64{0, 0},
			},
		},
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestNewFleetValidation(t *testing.T) {
	for _, join := range [][]string{{""}, {"host:1", "host:1"}} {
		if d, err := tiptop.NewDaemon(tiptop.Config{}, tiptop.DaemonOptions{Join: join}); err == nil {
			d.Close()
			t.Fatalf("-join %q accepted", join)
		}
	}
	// An aggregator monitors no scenario of its own.
	if d, err := tiptop.NewDaemon(tiptop.Config{}, tiptop.DaemonOptions{Join: []string{"host:1"}, Sim: tiptop.ScenarioSPEC()}); err == nil {
		d.Close()
		t.Fatal("-join with a scenario accepted")
	}
	// An empty join list is no aggregator: the daemon monitors locally.
	solo, err := tiptop.NewDaemon(tiptop.Config{}, tiptop.DaemonOptions{Sim: tiptop.ScenarioSPEC()})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if solo.FleetSnapshot() != nil {
		t.Fatal("a daemon without agents aggregates")
	}
	d, err := tiptop.NewDaemon(tiptop.Config{}, tiptop.DaemonOptions{Join: []string{"host1:9412", "http://host2:9412/"}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if first, _, _ := strings.Cut(w.Body.String(), "\n"); first != "tiptopd aggregating host1:9412, host2:9412" {
		t.Fatalf("index page opens %q", first)
	}
}

// TestFleetMergesAgents is the aggregator's core behavior: three agents
// streaming, one merged snapshot and exposition with per-machine
// labels, cluster sums recomputed from raw deltas.
func TestFleetMergesAgents(t *testing.T) {
	agents := []*fakeAgent{newFakeAgent(t), newFakeAgent(t), newFakeAgent(t)}
	addrs := make([]string, len(agents))
	for i, a := range agents {
		addrs[i] = "http://" + a.host()
		a.publish(agentSample(i+1, 2))
	}
	tiptop.SetAgentTimers(t, 10*time.Millisecond, remote.DialTimeout)
	d, base := runDaemon(t, tiptop.Config{}, tiptop.DaemonOptions{Join: addrs})
	waitFor(t, "all agents observed", func() bool { return d.Refreshes() >= 3 })

	// A second refresh from each agent.
	for i, a := range agents {
		a.publish(agentSample(i+1, 4))
	}
	waitFor(t, "second refreshes", func() bool { return d.Refreshes() >= 6 })

	snap := d.FleetSnapshot()
	if snap.Cluster.Agents != 3 || snap.Cluster.AgentsUp != 3 {
		t.Fatalf("cluster agents = %+v", snap.Cluster)
	}
	if snap.Cluster.Tasks != 6 {
		t.Fatalf("cluster tasks = %d, want 2 per agent", snap.Cluster.Tasks)
	}
	// Each agent's latest refresh contributes 700/1000: cluster IPC 0.7.
	if snap.Cluster.IPC < 0.69 || snap.Cluster.IPC > 0.71 {
		t.Fatalf("cluster IPC = %v", snap.Cluster.IPC)
	}
	// Two observed refreshes per agent fold 2×(1000 cycles, 700 instr).
	if snap.Cluster.Instructions != 3*2*700 || snap.Cluster.Cycles != 3*2*1000 {
		t.Fatalf("cluster totals = %+v", snap.Cluster)
	}
	if len(snap.Machines) != 3 {
		t.Fatalf("machines = %d", len(snap.Machines))
	}
	for i, a := range agents {
		m := snap.Machines[a.host()]
		if m == nil || m.Machine.Tasks != 2 {
			t.Fatalf("machine %d snapshot = %+v", i, m)
		}
		if m.Users[fmt.Sprintf("user%d", i+1)].Tasks != 1 {
			t.Fatalf("machine %d user aggregate missing", i)
		}
	}

	_, om := get(t, base+"/metrics")
	for _, want := range []string{
		"tiptop_fleet_agents 3",
		fmt.Sprintf(`tiptop_agent_up{machine="%s"} 1`, agents[0].host()),
		fmt.Sprintf(`tiptop_machine_tasks{machine="%s"} 2`, agents[1].host()),
		fmt.Sprintf(`tiptop_user_tasks{machine="%s",user="user3"} 1`, agents[2].host()),
		fmt.Sprintf(`tiptop_task_ipc{machine="%s",pid="101",tid="101",user="user1",command="mcf"}`, agents[0].host()),
		"# EOF",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}
	// Exactly one declaration per family even with three machines.
	if n := strings.Count(om, "# TYPE tiptop_machine_tasks gauge"); n != 1 {
		t.Errorf("tiptop_machine_tasks declared %d times", n)
	}
}

// TestFleetReconnectsAndSkipsReplay: an agent that goes away is marked
// down, re-dialed when it returns, and its replayed last frame is not
// double-counted into cumulative totals.
func TestFleetReconnectsAndSkipsReplay(t *testing.T) {
	a := newFakeAgent(t)
	a.publish(agentSample(1, 2))
	tiptop.SetAgentTimers(t, 5*time.Millisecond, remote.DialTimeout)
	d, _ := runDaemon(t, tiptop.Config{}, tiptop.DaemonOptions{Join: []string{"http://" + a.host()}})
	waitFor(t, "first observation", func() bool { return d.Refreshes() >= 1 })

	// Kill the agent's streams: the daemon re-dials, and is handed the
	// same last frame again, until it is taken off the network.
	a.srv.Close()
	waitFor(t, "a re-dial", func() bool { return a.polls.Load() >= 2 })
	a.stop()
	var snap *tiptop.FleetSnapshot
	waitFor(t, "agent down", func() bool {
		snap = d.FleetSnapshot()
		return !snap.Agents[0].Connected
	})

	// The replayed frame (same agent refresh counter) must not have
	// been folded twice while the daemon was reconnect-polling.
	if snap.Cluster.Instructions != 700 {
		t.Fatalf("instructions = %d after replay, want 700 (no double count)", snap.Cluster.Instructions)
	}
	if snap.Cluster.Tasks != 0 {
		t.Fatalf("down agent still contributes %d live tasks", snap.Cluster.Tasks)
	}
}

// TestFleetRebroadcastTagsSource: the aggregator's own stream carries
// the originating agent in Sample.Source.
func TestFleetRebroadcastTagsSource(t *testing.T) {
	a := newFakeAgent(t)
	a.publish(agentSample(1, 2))
	tiptop.SetAgentTimers(t, 10*time.Millisecond, remote.DialTimeout)
	_, base := runDaemon(t, tiptop.Config{}, tiptop.DaemonOptions{Join: []string{"http://" + a.host()}})

	// The stream replays the latest frame on connect, or waits for the
	// first one.
	resp, err := http.Get(base + "/api/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		payload, ok := strings.CutPrefix(lines.Text(), "data: ")
		if !ok {
			continue
		}
		ws, err := remote.Decode([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if ws.Source != a.host() {
			t.Fatalf("Source = %q, want %q", ws.Source, a.host())
		}
		return
	}
	t.Fatalf("stream ended without a frame: %v", lines.Err())
}

// TestFleetAgentRestartRebases: an agent that restarts — its clock and
// refresh counter back at the start — keeps its machine's time moving
// forward by one advertised interval per refresh, in its store and in
// its recorder, instead of 1 ms past the pre-restart horizon each.
func TestFleetAgentRestartRebases(t *testing.T) {
	const interval = 10 * time.Second
	sample := func(at float64) *remote.Sample {
		s := agentSample(1, at)
		s.IntervalSeconds = interval.Seconds()
		return s
	}
	a := newFakeAgent(t)
	a.publish(sample(10))
	tiptop.SetAgentTimers(t, 5*time.Millisecond, remote.DialTimeout)
	d, _ := runDaemon(t, tiptop.Config{StoreDir: t.TempDir()}, tiptop.DaemonOptions{Join: []string{a.host()}})
	waitFor(t, "the first refresh", func() bool { return d.Refreshes() >= 1 })
	// observe publishes one refresh and waits until the daemon has
	// recorded it (stored before published).
	observe := func(s *remote.Sample) {
		t.Helper()
		n := d.Refreshes()
		a.publish(s)
		waitFor(t, "the refresh", func() bool { return d.Refreshes() > n })
	}
	observe(sample(20))
	observe(sample(30))
	st := d.Stores()[a.host()]
	if got := st.LastTime(); got != 30*time.Second {
		t.Fatalf("store horizon %v before the restart, want 30s", got)
	}

	a.stop()
	a.start()
	for i, at := range []float64{1, 11, 21} {
		observe(sample(at))
		want := 30*time.Second + time.Duration(i+1)*interval
		if got := st.LastTime(); got < want-time.Millisecond || got > want+time.Millisecond {
			t.Errorf("refresh %d after the restart (agent clock %vs) stored at %v, want %v", i+1, at, got, want)
		}
		if got := d.FleetSnapshot().Machines[a.host()].TimeSeconds; got != want.Seconds() {
			t.Errorf("refresh %d after the restart recorded at %vs, want %v", i+1, got, want)
		}
	}
}

// TestRemoteMonitorFollowsRestartedDaemon: a RemoteMonitor whose daemon
// restarts — its refresh counter back at 1, serving another screen —
// returns the restarted daemon's first refresh and relabels its
// subscribed recorder, which records it at the new screen's width past
// the pre-restart refreshes,
// while the frame a connect to the same daemon
// replays, and a frame older than one SampleNow returned, stay skipped.
func TestRemoteMonitorFollowsRestartedDaemon(t *testing.T) {
	a := newFakeAgent(t)
	for at := 2.0; at <= 10; at += 2 {
		a.publish(agentSample(1, at))
	}
	rm, err := tiptop.NewRemoteMonitor(a.host())
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
	rm.Subscribe(rec)

	type sampled struct {
		s   *tiptop.Sample
		err error
	}
	// pending calls Sample on its own goroutine and waits until its
	// stream is subscribed, so a frame published next follows the
	// connect's replay.
	pending := func() <-chan sampled {
		t.Helper()
		ch := make(chan sampled, 1)
		go func() {
			s, err := rm.Sample()
			ch <- sampled{s, err}
		}()
		waitFor(t, "the stream to subscribe", func() bool { return a.srv.Hub().Subscribers() == 1 })
		return ch
	}
	within := func(ch <-chan sampled, d time.Duration) (*tiptop.Sample, bool) {
		t.Helper()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r.s, true
		case <-time.After(d):
			return nil, false
		}
	}
	// next publishes s to a pending Sample and returns the clock of the
	// refresh it hands out.
	next := func(ch <-chan sampled, s *remote.Sample) time.Duration {
		t.Helper()
		a.publish(s)
		got, ok := within(ch, 5*time.Second)
		if !ok {
			t.Fatalf("no refresh within 5s of publishing t=%vs", s.TimeSeconds)
		}
		return got.Time
	}
	lost := func() {
		t.Helper()
		if _, err := rm.Sample(); err == nil {
			t.Fatal("Sample returned a refresh from a stream that is gone")
		}
	}

	// The connect replays refresh 5, which the dial already fetched.
	if got := next(pending(), agentSample(1, 12)); got != 12*time.Second {
		t.Fatalf("first Sample returned t=%v, want the new refresh at 12s", got)
	}
	// Refreshes 7 and 8 wait on the stream; SampleNow returns 8, so the
	// stream's 7 and 8 are skipped.
	a.publish(agentSample(1, 14))
	a.publish(agentSample(1, 16))
	if s, err := rm.SampleNow(); err != nil || s.Time != 16*time.Second {
		t.Fatalf("SampleNow = %v, %v; want the refresh at 16s", s, err)
	}
	// Polled again, the same refresh is recorded at the same time.
	if s, err := rm.SampleNow(); err != nil || s.Time != 16*time.Second {
		t.Fatalf("SampleNow again = %v, %v; want the refresh at 16s", s, err)
	}
	if ts := rec.Snapshot().TimeSeconds; ts != 16 {
		t.Errorf("the recorder's last time is %vs after polling the 16s refresh twice, want 16s", ts)
	}
	if got := next(pending(), agentSample(1, 18)); got != 18*time.Second {
		t.Errorf("Sample after SampleNow returned t=%v, want 18s: a frame older than SampleNow's was handed out", got)
	}
	// A reconnect to the same daemon: its replay of refresh 9 is skipped.
	a.ts.CloseClientConnections()
	waitFor(t, "the stream to drop", func() bool { return a.srv.Hub().Subscribers() == 0 })
	lost()
	if got := next(pending(), agentSample(1, 20)); got != 20*time.Second {
		t.Errorf("Sample after a reconnect returned t=%v, want 20s: the replayed refresh was handed out again", got)
	}

	// The daemon restarts: refresh counter and clock start over, on
	// another screen.
	a.stop()
	a.start()
	restarted := func(at float64) *remote.Sample {
		s := agentSample(1, at)
		s.Columns = []remote.Column{
			{Name: "ipc", Header: "IPC", Width: 6, Format: "%6.2f"},
			{Name: "l3miss", Header: "L3MISS", Width: 6, Format: "%6.2f"},
			{Name: "ref", Header: "REF", Width: 6, Format: "%6.2f"},
		}
		s.Rows[0].Values = []float64{0.7, 4.5, 9}
		s.Rows[1].Values = []float64{0, 0, 0}
		return s
	}
	lost()
	ch := pending()
	a.publish(restarted(2))
	got, ok := within(ch, 5*time.Second)
	if !ok {
		t.Errorf("the restarted daemon's first refresh was not returned")
		// Publish on until one is, so the recorder is still checked.
		for at := 4.0; !ok; at += 2 {
			if at > 100 {
				t.Fatal("no refresh of the restarted daemon was returned")
			}
			a.publish(restarted(at))
			got, ok = within(ch, 50*time.Millisecond)
		}
	} else if got.Time != 2*time.Second {
		t.Errorf("after the restart Sample returned t=%v, want 2s", got.Time)
	}
	snap := rec.Snapshot()
	if !slices.Equal(snap.Columns, []string{"ipc", "l3miss", "ref"}) {
		t.Errorf("subscribed recorder's columns = %q after the restart, want the new screen's [ipc l3miss ref]", snap.Columns)
	}
	// Its values are the new screen's, at the new width.
	for _, task := range snap.Tasks {
		if task.PID == 101 && !slices.Equal(task.Values, []float64{0.7, 4.5, 9}) {
			t.Errorf("subscribed recorder holds %v for pid 101 after the restart, want the new screen's [0.7 4.5 9]", task.Values)
		}
	}
	if len(snap.Tasks) == 0 {
		t.Error("subscribed recorder shows no task after the restart")
	}
	// The recorder follows one clock: the restarted daemon's refresh is
	// recorded after the last one before the restart, at 20s.
	if snap.TimeSeconds <= 20 {
		t.Errorf("subscribed recorder's last time is %vs after the restart, want past the pre-restart 20s", snap.TimeSeconds)
	}
}

// TestFleetStalledAgentGoesDown: an agent that answers the stream
// request and then never writes a frame (a stopped tiptopd whose kernel
// still holds the connection) is marked down once it has been silent
// for longer than two of its intervals and the slack.
func TestFleetStalledAgentGoesDown(t *testing.T) {
	srv := remote.NewServer(nil)
	stalled := agentSample(1, 1)
	stalled.IntervalSeconds = 0.01
	if err := srv.Publish(stalled); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/sample", srv.HandleSample)
	mux.HandleFunc("GET /api/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	live := newFakeAgent(t)
	live.publish(agentSample(2, 1))

	// Given up on, the stalled agent stays down for the rest of the test.
	tiptop.SetAgentTimers(t, time.Hour, 50*time.Millisecond)
	d, base := runDaemon(t, tiptop.Config{}, tiptop.DaemonOptions{Join: []string{ts.URL, live.host()}})
	stalledHost := strings.TrimPrefix(ts.URL, "http://")
	waitFor(t, "both agents observed", func() bool { return d.Refreshes() >= 2 })
	waitFor(t, "the stalled agent marked down", func() bool {
		for _, st := range d.FleetSnapshot().Agents {
			if st.Label == stalledHost {
				return !st.Connected
			}
		}
		return false
	})
	status, body := get(t, base+"/api/v1/agents")
	if status != http.StatusOK || strings.Count(body, `"connected": true`) != 1 || !strings.Contains(body, "no refresh for") {
		t.Fatalf("/api/v1/agents = %d %s", status, body)
	}
	// The next refresh of the live agent re-encodes the exposition.
	live.publish(agentSample(2, 3))
	waitFor(t, "the live agent's refresh", func() bool { return d.Refreshes() >= 3 })
	_, om := get(t, base+"/metrics")
	if want := fmt.Sprintf(`tiptop_agent_up{machine="%s"} 0`, stalledHost); !strings.Contains(om, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestFleetAgentFlap: one agent goes down and comes back, again and
// again. Each time it returns the daemon reports it up, in /metrics and
// /api/v1/agents; once closed, the daemon has left no goroutine behind.
func TestFleetAgentFlap(t *testing.T) {
	a := newFakeAgent(t)
	a.publish(agentSample(1, 1))
	tiptop.SetAgentTimers(t, 5*time.Millisecond, remote.DialTimeout)
	before := runtime.NumGoroutine()
	d, err := tiptop.NewDaemon(tiptop.Config{}, tiptop.DaemonOptions{Join: []string{a.host()}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, ln) }()

	up := fmt.Sprintf(`tiptop_agent_up{machine="%s"} 1`, a.host())
	for flap := 1; flap <= 4; flap++ {
		waitFor(t, "the agent's refresh", func() bool { return d.Refreshes() >= uint64(flap) })
		if _, om := get(t, base+"/metrics"); !strings.Contains(om, up) {
			t.Errorf("flap %d: /metrics missing %q", flap, up)
		}
		if _, body := get(t, base+"/api/v1/agents"); !strings.Contains(body, `"connected": true`) {
			t.Errorf("flap %d: /api/v1/agents = %s", flap, body)
		}
		if flap == 4 {
			break
		}
		a.stop()
		waitFor(t, "the agent marked down", func() bool { return !d.FleetSnapshot().Agents[0].Connected })
		a.start()
		a.publish(agentSample(1, float64(1+flap)))
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("Run: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	a.stop()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	// The agent's own server was running when the count was taken.
	const slack = 2
	waitFor(t, "the daemon's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before+slack })
}

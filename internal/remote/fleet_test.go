package remote

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeAgent is a minimal tiptopd: a wire Server behind httptest that
// the test publishes into directly.
type fakeAgent struct {
	srv *Server
	ts  *httptest.Server
}

func newFakeAgent(t *testing.T) *fakeAgent {
	t.Helper()
	srv := NewServer(nil)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return &fakeAgent{srv: srv, ts: ts}
}

func (a *fakeAgent) host() string { return strings.TrimPrefix(a.ts.URL, "http://") }

// agentSample builds a distinguishable sample per agent.
func agentSample(agent int, t float64) *Sample {
	s := testSample(0, t)
	s.Machine = fmt.Sprintf("agent-%d box", agent)
	s.Rows[0].PID = 100*agent + 1
	s.Rows[0].TID = s.Rows[0].PID
	s.Rows[1].PID = 100*agent + 2
	s.Rows[0].User = fmt.Sprintf("user%d", agent)
	return s
}

func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(nil, FleetOptions{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewFleet([]string{""}, FleetOptions{}); err == nil {
		t.Fatal("blank agent accepted")
	}
	if _, err := NewFleet([]string{"host:1", "host:1"}, FleetOptions{}); err == nil {
		t.Fatal("duplicate agent accepted")
	}
	f, err := NewFleet([]string{"host1:9412", "http://host2:9412/"}, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Labels(); got[0] != "host1:9412" || got[1] != "host2:9412" {
		t.Fatalf("labels = %v", got)
	}
}

// waitFor polls until cond returns true, bounded by the test deadline
// (less a margin, so the failure names what never happened) — the one
// place these tests pause.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline, bounded := t.Deadline()
	for !cond() {
		if bounded && time.Until(deadline) < 5*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetMergesAgents is the aggregator's core behavior: three agents
// streaming, one merged snapshot and exposition with per-machine
// labels, cluster sums recomputed from raw deltas.
func TestFleetMergesAgents(t *testing.T) {
	agents := []*fakeAgent{newFakeAgent(t), newFakeAgent(t), newFakeAgent(t)}
	addrs := make([]string, len(agents))
	for i, a := range agents {
		addrs[i] = a.ts.URL
		if err := a.srv.Publish(agentSample(i+1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	fleet, err := NewFleet(addrs, FleetOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		fleet.Wait()
		fleet.Server().Close()
	}()
	fleet.Start(ctx)
	waitFor(t, "all agents observed", func() bool { return fleet.Server().Version() >= 3 })

	// A second refresh from each agent.
	for i, a := range agents {
		if err := a.srv.Publish(agentSample(i+1, 4)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "second refreshes", func() bool { return fleet.Server().Version() >= 6 })

	snap := fleet.Snapshot()
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

	var sb strings.Builder
	if err := fleet.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	om := sb.String()
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
	srv := NewServer(nil)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if err := srv.Publish(agentSample(1, 2)); err != nil {
		t.Fatal(err)
	}

	fleet, err := NewFleet([]string{ts.URL}, FleetOptions{ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		fleet.Wait()
		fleet.Server().Close()
	}()
	fleet.Start(ctx)
	waitFor(t, "first observation", func() bool { return fleet.Server().Version() >= 1 })

	// Kill the agent's streams: the fleet must mark it down.
	srv.Close()
	waitFor(t, "agent down", func() bool { return !fleet.Snapshot().Agents[0].Connected })

	// The replayed frame (same agent refresh counter) must not have
	// been folded twice while the fleet was reconnect-polling.
	snap := fleet.Snapshot()
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
	agent := newFakeAgent(t)
	if err := agent.srv.Publish(agentSample(1, 2)); err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet([]string{agent.ts.URL}, FleetOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub := fleet.Server().Hub().Subscribe()
	defer cancelSub()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		fleet.Wait()
		fleet.Server().Close()
	}()
	fleet.Start(ctx)

	waitFor(t, "a re-broadcast frame", func() bool { return fleet.Server().Version() >= 1 })
	frame := <-ch
	s := string(frame.Stream(FormatJSON))
	i := strings.Index(s, "data: ")
	if i < 0 {
		t.Fatalf("frame = %q", s)
	}
	payload := strings.TrimSuffix(s[i+len("data: "):], "\n\n")
	ws, err := Decode([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Source != agent.host() {
		t.Fatalf("Source = %q, want %q", ws.Source, agent.host())
	}
}

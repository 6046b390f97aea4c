package main

// End-to-end coverage of the -join aggregator: three live simulated
// agents merged into one per-machine-labelled /metrics and
// /api/v1/snapshot, and the SSE surface under concurrent subscribers
// while agents churn (the -race suite for the federation layer).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiptop"
)

// An agent is one live simulated tiptopd the aggregator joins.
type agent = live

func (a *agent) host() string { return strings.TrimPrefix(a.URL, "http://") }

// close tears the agent down; safe to call twice.
func (a *agent) close(t *testing.T) {
	t.Helper()
	if err := a.stop(); err != nil {
		t.Errorf("agent loop: %v", err)
	}
}

// startAgent launches a live agent over the named scenario.
func startAgent(t *testing.T, scenario string) *agent {
	t.Helper()
	return start(t, newDaemon(t, tiptop.Config{Interval: 10 * time.Millisecond}, tiptop.DaemonOptions{Sim: scenario}))
}

// startFleet runs an aggregator joining the agents — with a store
// directory under cfg.StoreDir, one store per agent.
func startFleet(t *testing.T, cfg tiptop.Config, agents []*agent) (*tiptop.Daemon, *live) {
	t.Helper()
	urls := make([]string, len(agents))
	for i, a := range agents {
		urls[i] = a.URL
	}
	ts := start(t, newDaemon(t, cfg, tiptop.DaemonOptions{Join: urls}))
	return ts.Daemon, ts
}

// waitUntil polls until cond returns true, bounded by the test deadline
// (less a margin, so the failure names what never happened) — the one
// place these tests pause.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline, bounded := t.Deadline()
	for !cond() {
		if bounded && time.Until(deadline) < 5*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRefreshes waits until the fleet has observed n more samples.
func waitRefreshes(t *testing.T, fleet *tiptop.Daemon, n uint64) {
	t.Helper()
	target := fleet.Refreshes() + n
	waitUntil(t, "the fleet to observe more samples", func() bool { return fleet.Refreshes() >= target })
}

// TestFleetAggregatorEndToEnd is the federation acceptance test: three
// live simulated agents, a -join aggregator serving a merged,
// per-machine-labelled /metrics and /api/v1/snapshot.
func TestFleetAggregatorEndToEnd(t *testing.T) {
	agents := []*agent{
		startAgent(t, "datacenter"),
		startAgent(t, "spec"),
		startAgent(t, "conflict"),
	}
	for _, a := range agents {
		a := a
		t.Cleanup(func() { a.close(t) })
	}
	fleet, ts := startFleet(t, tiptop.Config{}, agents)
	waitUntil(t, "all agents streaming", func() bool {
		snap := fleet.FleetSnapshot()
		if snap.Cluster.AgentsUp != 3 {
			return false
		}
		for _, st := range snap.Agents {
			if st.Samples < 3 {
				return false
			}
		}
		return true
	})

	// Merged snapshot: per-machine entries plus cluster roll-up.
	status, body := get(t, ts.URL+"/api/v1/snapshot")
	if status != http.StatusOK {
		t.Fatalf("/api/v1/snapshot status = %d", status)
	}
	var snap struct {
		Agents []struct {
			Label     string `json:"label"`
			Connected bool   `json:"connected"`
		} `json:"agents"`
		Cluster struct {
			Agents       int     `json:"agents"`
			AgentsUp     int     `json:"agents_up"`
			Tasks        int     `json:"tasks"`
			IPC          float64 `json:"ipc"`
			Instructions uint64  `json:"instructions_total"`
		} `json:"cluster"`
		Machines map[string]struct {
			Machine struct {
				Tasks int `json:"tasks"`
			} `json:"machine"`
		} `json:"machines"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v\n%s", err, body)
	}
	if snap.Cluster.Agents != 3 || snap.Cluster.AgentsUp != 3 || len(snap.Machines) != 3 {
		t.Fatalf("cluster = %+v machines = %d", snap.Cluster, len(snap.Machines))
	}
	// datacenter has 11 tasks, spec 4, conflict 3.
	if m := snap.Machines[agents[0].host()]; m.Machine.Tasks != 11 {
		t.Fatalf("datacenter agent tasks = %d", m.Machine.Tasks)
	}
	sum := 0
	for _, m := range snap.Machines {
		sum += m.Machine.Tasks
	}
	if snap.Cluster.Tasks != sum || sum != 18 {
		t.Fatalf("cluster tasks %d != Σ machines %d (want 18)", snap.Cluster.Tasks, sum)
	}
	if snap.Cluster.IPC <= 0 || snap.Cluster.Instructions == 0 {
		t.Fatalf("cluster rates empty: %+v", snap.Cluster)
	}

	// Merged metrics: one exposition, per-machine labels, ETag'd.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := new(strings.Builder)
	if _, err := fmt.Fprintf(mb, ""); err != nil {
		t.Fatal(err)
	}
	buf := bufio.NewScanner(resp.Body)
	buf.Buffer(make([]byte, 1<<20), 1<<20)
	for buf.Scan() {
		mb.WriteString(buf.Text())
		mb.WriteByte('\n')
	}
	resp.Body.Close()
	om := mb.String()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("/metrics status=%d etag=%q", resp.StatusCode, etag)
	}
	for _, want := range []string{
		"tiptop_fleet_agents 3",
		fmt.Sprintf(`tiptop_agent_up{machine="%s"} 1`, agents[0].host()),
		fmt.Sprintf(`tiptop_machine_tasks{machine="%s"} 11`, agents[0].host()),
		fmt.Sprintf(`tiptop_machine_tasks{machine="%s"} 4`, agents[1].host()),
		fmt.Sprintf(`tiptop_machine_tasks{machine="%s"} 3`, agents[2].host()),
		fmt.Sprintf(`tiptop_user_tasks{machine="%s",user="user1"} 8`, agents[0].host()),
		`tiptop_task_ipc{machine="`,
		"# EOF",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("merged /metrics missing %q", want)
		}
	}
	if n := strings.Count(om, "# TYPE tiptop_machine_tasks gauge"); n != 1 {
		t.Errorf("tiptop_machine_tasks declared %d times", n)
	}

	// Agents listing.
	status, body = get(t, ts.URL+"/api/v1/agents")
	if status != http.StatusOK || strings.Count(body, `"connected": true`) != 3 {
		t.Fatalf("/api/v1/agents = %d %s", status, body)
	}
}

// TestFleetSSESubscribersDuringChurn hammers the aggregator's stream
// with concurrent subscribers while an agent dies mid-stream — run
// under -race this is the federation layer's concurrency regression
// suite.
func TestFleetSSESubscribersDuringChurn(t *testing.T) {
	agents := []*agent{
		startAgent(t, "datacenter"),
		startAgent(t, "spec"),
		startAgent(t, "conflict"),
	}
	// agents[0] is killed mid-test; the rest are cleaned up normally.
	for _, a := range agents[1:] {
		a := a
		t.Cleanup(func() { a.close(t) })
	}
	fleet, ts := startFleet(t, tiptop.Config{}, agents)
	waitUntil(t, "agents streaming", func() bool { return fleet.FleetSnapshot().Cluster.AgentsUp == 3 })

	const subscribers = 8
	var streaming atomic.Bool // some subscriber has read a frame
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/stream", nil)
				if err != nil {
					errs <- err
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				resp, err := http.DefaultClient.Do(req.WithContext(ctx))
				if err != nil {
					cancel()
					continue // aggregator shutting down between rounds
				}
				// Read frames until the bounded context expires.
				buf := make([]byte, 4096)
				for {
					if _, err := resp.Body.Read(buf); err != nil {
						break
					}
					streaming.Store(true)
				}
				resp.Body.Close()
				cancel()
			}
		}()
	}

	// Let subscribers stream, then kill one agent mid-flight.
	waitUntil(t, "stream subscribers", streaming.Load)
	waitRefreshes(t, fleet, 10)
	agents[0].close(t)
	waitUntil(t, "dead agent marked down", func() bool {
		snap := fleet.FleetSnapshot()
		return snap.Cluster.AgentsUp == 2
	})
	// The aggregator keeps serving merged state for the survivors.
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics during churn = %d", status)
	}
	if !strings.Contains(body, fmt.Sprintf(`tiptop_agent_up{machine="%s"} 0`, agents[0].host())) {
		t.Error("dead agent not reported down in /metrics")
	}
	if !strings.Contains(body, fmt.Sprintf(`tiptop_agent_up{machine="%s"} 1`, agents[1].host())) {
		t.Error("live agent not reported up in /metrics")
	}
	// The survivors keep the stream flowing after the churn.
	waitRefreshes(t, fleet, 10)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunFleetFlag drives the real run() in -join mode for a bounded
// number of observed samples. The flag and the file's join= attribute
// are split by one rule: entries trimmed, empty ones dropped.
func TestRunFleetFlag(t *testing.T) {
	a := startAgent(t, "datacenter")
	t.Cleanup(func() { a.close(t) })
	xml := filepath.Join(t.TempDir(), "join.xml")
	if err := os.WriteFile(xml, []byte(`<tiptop><options join="`+a.host()+`, "/></tiptop>`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, join := range [][]string{
		{"-join", a.host()},
		{"-join", " " + a.host() + " ,"},
		{"-config", xml},
	} {
		var sb strings.Builder
		if err := run(append(join, "-addr", "127.0.0.1:0", "-n", "5"), &sb); err != nil {
			t.Fatalf("%q: %v", join, err)
		}
		if !strings.Contains(sb.String(), "aggregating 1 agents") {
			t.Fatalf("%q: stdout = %q", join, sb.String())
		}
	}
}

func TestRunFleetFlagValidation(t *testing.T) {
	if err := run([]string{"-join", "h:1", "-sim", "spec"}, new(strings.Builder)); err == nil {
		t.Fatal("-join with -sim must fail")
	}
	if err := run([]string{"-join", " , "}, new(strings.Builder)); err == nil {
		t.Fatal("blank -join must fail")
	}
}

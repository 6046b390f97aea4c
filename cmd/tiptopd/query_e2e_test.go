package main

// End-to-end coverage of /api/v1/query?expr=: the shared expression
// engine must agree with the live screen pipeline on the same run —
// delta(INSTRUCTIONS)/delta(CYCLES) queried over the durable store is
// the IPC column the screens computed — and a fleet aggregator must
// serve the same expression merged across agents (?agent=*) with
// ratios recomputed from summed counters.

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"tiptop"
	"tiptop/internal/query"
)

func getQueryResult(t *testing.T, url string) *query.Result {
	t.Helper()
	status, body := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var res query.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("bad query response: %v\n%s", err, body)
	}
	return &res
}

// TestQueryExprMatchesLiveScreenIPC is the e2e golden: a seeded sim
// daemon records into a store; the IPC expression queried over that
// store at the raw tier reproduces, point for point, the IPC values
// the live screen pipeline computed for the same refreshes.
func TestQueryExprMatchesLiveScreenIPC(t *testing.T) {
	d, ts, shutdown := bootDaemon(t, t.TempDir())
	defer shutdown()
	waitUntil(t, "daemon to record", func() bool { return d.Stores()[""].Records() >= 30 })

	res := getQueryResult(t, ts.URL+"/api/v1/query?expr=delta(INSTRUCTIONS)%2Fdelta(CYCLES)")
	if len(res.Series) < 2 {
		t.Fatalf("expected per-task series plus total, got %d", len(res.Series))
	}

	// The live screen pipeline's IPC, as the recorder captured it:
	// (pid, tid, time) → the IPC column value of that refresh.
	type obsKey struct {
		pid, tid int
		at       float64
	}
	live := map[obsKey]float64{}
	for _, pid := range d.Recorder().PIDs() {
		for _, s := range d.Recorder().History(pid) {
			for _, p := range s.Points {
				live[obsKey{s.PID, s.TID, p.TimeSeconds}] = p.IPC
			}
		}
	}
	if len(live) == 0 {
		t.Fatal("recorder holds no live history")
	}

	matched := 0
	for _, s := range res.Series {
		if s.Total {
			continue
		}
		for _, p := range s.Points {
			ipc, ok := live[obsKey{s.PID, s.TID, p.TimeSeconds}]
			if !ok {
				// The ring may have evicted the oldest points the store
				// still holds; only co-observed refreshes are comparable.
				continue
			}
			matched++
			if math.Abs(p.Value-ipc) > 1e-12 {
				t.Fatalf("pid %d at t=%g: store query IPC %v, live screen IPC %v",
					s.PID, p.TimeSeconds, p.Value, ipc)
			}
		}
	}
	if matched < 10 {
		t.Fatalf("only %d points were comparable between store query and live history", matched)
	}

	// Stored expressions resolve by name on the endpoint.
	named := getQueryResult(t, ts.URL+"/api/v1/query?expr=ipc_expr")
	if !strings.Contains(named.Expr, "INSTRUCTIONS") {
		t.Fatalf("named expr resolved to %q, want the stored IPC source", named.Expr)
	}
	if len(named.Series) == 0 {
		t.Fatal("named expr returned no series")
	}
}

// TestFleetQueryExprAggregates: ?agent=*&expr= merges every agent's
// store on aligned buckets, and the merged IPC total is exactly the
// ratio of the merged instruction and cycle totals — the same
// Σinstr/Σcycles semantics as the fleet snapshot.
func TestFleetQueryExprAggregates(t *testing.T) {
	agents := []*agent{startAgent(t, "datacenter"), startAgent(t, "spec")}
	defer func() {
		for _, a := range agents {
			a.close(t)
		}
	}()
	fd, ts := startFleet(t, tiptop.Config{StoreDir: t.TempDir()}, agents)
	for label, st := range fd.Stores() {
		st := st
		waitUntil(t, "store of "+label, func() bool { return st.Records() >= 20 })
	}

	// Merging needs an explicit step.
	if status, body := get(t, ts.URL+"/api/v1/query?agent=*&expr=CYCLES"); status != http.StatusBadRequest {
		t.Fatalf("fleet merge without step: HTTP %d: %s", status, body)
	}

	ipc := getQueryResult(t, ts.URL+"/api/v1/query?agent=*&step=0.05&expr=delta(INSTRUCTIONS)%2Fdelta(CYCLES)")
	instr := getQueryResult(t, ts.URL+"/api/v1/query?agent=*&step=0.05&expr=delta(INSTRUCTIONS)")
	cycles := getQueryResult(t, ts.URL+"/api/v1/query?agent=*&step=0.05&expr=delta(CYCLES)")

	agentsSeen := map[string]bool{}
	for _, s := range ipc.Series {
		if !s.Total && s.Agent != "" {
			agentsSeen[s.Agent] = true
		}
	}
	if len(agentsSeen) != 2 {
		t.Fatalf("fleet series span agents %v, want both", agentsSeen)
	}

	// Pointwise: for every completed bucket present in all three
	// results, ipc_total(t) == instr_total(t)/cycles_total(t). The
	// agents keep sampling between the three requests, each on its own
	// clock, so a bucket is complete only once every agent has moved
	// past it: buckets at or after the slowest agent's newest one are
	// excluded (the fleet-wide newest would still admit the bucket a
	// lagging agent is filling).
	total := func(r *query.Result) map[float64]float64 {
		newest := map[string]float64{}
		for _, s := range r.Series {
			for _, p := range s.Points {
				if !s.Total && p.TimeSeconds > newest[s.Agent] {
					newest[s.Agent] = p.TimeSeconds
				}
			}
		}
		frontier := math.MaxFloat64
		for _, at := range newest {
			frontier = math.Min(frontier, at)
		}
		m := map[float64]float64{}
		for _, s := range r.Series {
			if !s.Total {
				continue
			}
			for _, p := range s.Points {
				if p.TimeSeconds < frontier { // completed buckets only
					m[p.TimeSeconds] = p.Value
				}
			}
		}
		return m
	}
	ipcT, instrT, cyclesT := total(ipc), total(instr), total(cycles)
	compared := 0
	for at, v := range ipcT {
		i, ok1 := instrT[at]
		c, ok2 := cyclesT[at]
		if !ok1 || !ok2 || c == 0 {
			continue
		}
		compared++
		if math.Abs(v-i/c) > 1e-12 {
			t.Fatalf("bucket t=%g: fleet IPC %v != Σinstr/Σcycles %v", at, v, i/c)
		}
	}
	if compared == 0 {
		t.Fatal("no completed fleet buckets were comparable")
	}
}

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
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
// the live screen pipeline computed for the same refreshes — the rows
// Refresh returned, not the recorder's history, which reads the store.
func TestQueryExprMatchesLiveScreenIPC(t *testing.T) {
	d := newDaemon(t, tiptop.Config{
		Interval: 10 * time.Millisecond,
		StoreDir: t.TempDir(),
		Exprs:    []tiptop.ExprDef{{Name: "ipc_expr", Expr: "delta(INSTRUCTIONS)/delta(CYCLES)"}},
	}, tiptop.DaemonOptions{Sim: sim(t, "datacenter")})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	// The live screen pipeline's IPC: (pid, millisecond) → the IPC of
	// the pid's row in that refresh. A fresh store's clock is the
	// samples'.
	type obsKey struct {
		pid int
		ms  int64
	}
	live := map[obsKey]float64{}
	for i := 0; i < 30; i++ {
		s, err := d.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range s.Rows {
			live[obsKey{row.PID, s.Time.Milliseconds()}] = row.IPC
		}
	}

	res := getQueryResult(t, ts.URL+"/api/v1/query?expr=delta(INSTRUCTIONS)%2Fdelta(CYCLES)")
	if len(res.Series) < 2 {
		t.Fatalf("expected per-task series plus total, got %d", len(res.Series))
	}

	matched := 0
	for _, s := range res.Series {
		if s.Total {
			continue
		}
		for _, p := range s.Points {
			ipc, ok := live[obsKey{s.PID, int64(math.Round(p.TimeSeconds * 1000))}]
			if !ok {
				t.Fatalf("pid %d at t=%g: the store holds a point no refresh returned", s.PID, p.TimeSeconds)
			}
			matched++
			if math.Abs(p.Value-ipc) > 1e-12 {
				t.Fatalf("pid %d at t=%g: store query IPC %v, live screen IPC %v",
					s.PID, p.TimeSeconds, p.Value, ipc)
			}
		}
	}
	if matched < 10*len(res.Series[1:]) {
		t.Fatalf("only %d points were comparable between the store query and the refreshes", matched)
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

// TestFigure11NamedExpression: Figure 11's L2 misses per 100
// instructions as a named <expr> of a -config file. A daemon on the mem
// screen stores the screen's every event count, so it answers
// ?expr=l2m_per100&step=10 from its 10 s tier, and each point is what
// the tier's own l2m column reads for the same bucket.
func TestFigure11NamedExpression(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "fig11.xml")
	doc := `<tiptop><expr name="l2m_per100" expr="per100(L2_MISSES, INSTRUCTIONS)"/></tiptop>`
	if err := os.WriteFile(conf, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := resolve([]string{"-sim", "datacenter", "-screen", "mem", "-d", "1", "-store", t.TempDir(), "-config", conf})
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(t, o.cfg, o.daemon)
	defer d.Close()
	for range 35 {
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	ask := func(expr string) *query.Result {
		t.Helper()
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/query?step=10&expr="+expr, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("?expr=%s&step=10: HTTP %d: %s", expr, w.Code, w.Body)
		}
		var res query.Result
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return &res
	}
	named, column := ask("l2m_per100"), ask("l2m")
	if named.ResolutionSeconds != 10 || named.Expr != "per100(L2_MISSES, INSTRUCTIONS)" {
		t.Fatalf("served %q from resolution %gs, want the stored source from the 10 s tier", named.Expr, named.ResolutionSeconds)
	}
	if len(named.Series) != len(column.Series) || len(named.Series) < 2 {
		t.Fatalf("%d series for the named expression, %d for the column", len(named.Series), len(column.Series))
	}
	points := 0
	for i, s := range named.Series {
		if s.Total {
			continue // the total sums over tasks; the column averages them
		}
		c := column.Series[i]
		if s.Key != c.Key || len(s.Points) != len(c.Points) {
			t.Fatalf("series %d: %s with %d points, the column's %s with %d", i, s.Key, len(s.Points), c.Key, len(c.Points))
		}
		for j, p := range s.Points {
			if want := c.Points[j].Value; math.Abs(p.Value-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s at %gs: l2m_per100 %v, the l2m column %v", s.Key, p.TimeSeconds, p.Value, want)
			}
			if p.Value > 0 {
				points++
			}
		}
	}
	if points < 4 {
		t.Fatalf("only %d non-zero points compared", points)
	}
}

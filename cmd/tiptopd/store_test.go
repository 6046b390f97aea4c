package main

// End-to-end coverage of -store: the durable history behind
// /api/v1/query must span daemon restarts — proven twice, against the
// in-process daemon and against the real binary restarted
// mid-run — plus the fleet aggregator's per-agent stores and the
// OpenMetrics query variant.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiptop"
)

// bootDaemon starts one daemon "boot" over the datacenter scenario with
// a store in dir. Returns the daemon, its running server and a shutdown
// function (which also closes the store, like a real exit; the test's
// cleanup reports what failed). The daemon knows one stored expression,
// ipc_expr.
func bootDaemon(t *testing.T, dir string) (*tiptop.Daemon, *live, func()) {
	t.Helper()
	ts := start(t, newDaemon(t, tiptop.Config{
		Interval: 10 * time.Millisecond,
		StoreDir: dir,
		Exprs:    []tiptop.ExprDef{{Name: "ipc_expr", Expr: "delta(INSTRUCTIONS)/delta(CYCLES)"}},
	}, tiptop.DaemonOptions{Sim: sim(t, "datacenter")}))
	return ts.Daemon, ts, func() { _ = ts.stop() }
}

// agentStoreDir is where an aggregator keeps an agent's store: one
// subdirectory of the store directory per agent, host:port spelled
// host_port.
func agentStoreDir(base, label string) string {
	return filepath.Join(base, strings.NewReplacer(":", "_", "/", "_").Replace(label))
}

// TestStoreQueryAcrossRestart is the tentpole acceptance test (in-process
// half): a daemon records into -store, shuts down, a second daemon
// recovers the same directory, and /api/v1/query serves one continuous
// history spanning both boots.
func TestStoreQueryAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	d1, _, shutdown1 := bootDaemon(t, dir)
	waitUntil(t, "first boot to record", func() bool { return d1.Stores()[""].Records() >= 20 })
	shutdown1()

	st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	boundary := st.LastTime().Seconds()
	if boundary <= 0 {
		t.Fatal("first boot left no history")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	d2, ts, shutdown2 := bootDaemon(t, dir)
	defer shutdown2()
	waitUntil(t, "second boot to record past the restart", func() bool {
		return d2.Stores()[""].LastTime().Seconds() > boundary+0.05
	})

	qc, err := tiptop.NewQueryClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := qc.Query(tiptop.StoreQuery{PID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || len(res.Machine) == 0 {
		t.Fatalf("empty query result: %+v", res)
	}
	var before, after int
	for _, p := range res.Machine {
		if p.TimeSeconds <= boundary {
			before++
		} else {
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("history does not span the restart: %d points before t=%g, %d after", before, boundary, after)
	}
	// Per-task series must also be continuous across the boundary, and
	// strictly time-ordered (the monotonic store clock).
	spanned := false
	for _, s := range res.Series {
		var b, a int
		for i, p := range s.Points {
			if i > 0 && p.TimeSeconds <= s.Points[i-1].TimeSeconds {
				t.Fatalf("pid %d: time not monotonic at point %d", s.PID, i)
			}
			if p.TimeSeconds <= boundary {
				b++
			} else {
				a++
			}
		}
		if b > 0 && a > 0 {
			spanned = true
		}
	}
	if !spanned {
		t.Fatal("no task series spans the restart")
	}

	// The range filter must respect the boundary.
	res, err = qc.Query(tiptop.StoreQuery{PID: -1, ToSeconds: boundary})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Machine {
		if p.TimeSeconds > boundary {
			t.Fatalf("to=%g returned a point at t=%g", boundary, p.TimeSeconds)
		}
	}
}

// TestHistoryDoesNotSpliceRestarts: /api/v1/history reads the store
// once -store is set, and the store spans daemon lifetimes; a pid's
// history still holds only the refreshes this daemon observed, never the
// previous lifetime's, though the same pid recorded there too.
func TestHistoryDoesNotSpliceRestarts(t *testing.T) {
	dir := t.TempDir()
	boot := func(refreshes int) (*tiptop.Daemon, *httptest.Server) {
		d := newDaemon(t, tiptop.Config{Interval: 10 * time.Millisecond, StoreDir: dir}, tiptop.DaemonOptions{Sim: sim(t, "datacenter")})
		for i := 0; i < refreshes; i++ {
			if _, err := d.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		return d, httptest.NewServer(d.Handler())
	}
	d1, ts1 := boot(12)
	ts1.Close()
	boundary := d1.Stores()[""].LastTime().Seconds()
	pid := d1.Recorder().PIDs()[0]
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, ts2 := boot(5)
	defer d2.Close()
	defer ts2.Close()
	status, body := get(t, ts2.URL+"/api/v1/history?pid="+strconv.Itoa(pid))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var h struct {
		Series []tiptop.HistorySeries `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Series) != 1 || len(h.Series[0].Points) != 5 {
		t.Fatalf("pid %d after a restart: %s, want the second lifetime's 5 points", pid, body)
	}
	for _, p := range h.Series[0].Points {
		if p.TimeSeconds <= boundary {
			t.Fatalf("pid %d: a point at t=%g, from the lifetime that ended at t=%g", pid, p.TimeSeconds, boundary)
		}
	}
}

// TestStoreRealProcessRestart is the other half of the acceptance test:
// the actual tiptopd binary, restarted between runs, serves range
// queries spanning the restart.
func TestStoreRealProcessRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tiptopd.bin")
	if out, err := exec.Command("go", "build", "-o", bin, "tiptop/cmd/tiptopd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()

	// First run: finite, records and exits.
	run1 := exec.Command(bin, "-sim", "datacenter", "-d", "0.02", "-n", "20",
		"-addr", "127.0.0.1:0", "-store", dir)
	if out, err := run1.CombinedOutput(); err != nil {
		t.Fatalf("first run: %v\n%s", err, out)
	}

	st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	boundary := st.LastTime().Seconds()
	if st.Records() == 0 || boundary <= 0 {
		t.Fatalf("first run recorded nothing (records=%d, last=%g)", st.Records(), boundary)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second run: serve until interrupted; find its address on stdout.
	run2 := exec.Command(bin, "-sim", "datacenter", "-d", "0.02",
		"-addr", "127.0.0.1:0", "-store", dir)
	stdout, err := run2.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	run2.Stderr = os.Stderr
	if err := run2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = run2.Process.Signal(os.Interrupt)
		_ = run2.Wait()
	}()
	var addr string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "serving http://"); i >= 0 {
			addr = strings.TrimSuffix(line[i+len("serving http://"):], "/metrics")
			break
		}
	}
	if addr == "" {
		t.Fatalf("no serving address on stdout (scan err: %v)", scanner.Err())
	}

	qc, err := tiptop.NewQueryClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	var res *tiptop.StoreResult
	waitUntil(t, "a query spanning the restart", func() bool {
		res, err = qc.Query(tiptop.StoreQuery{PID: -1})
		return err == nil && len(res.Machine) > 0 && res.Machine[len(res.Machine)-1].TimeSeconds > boundary+0.05
	})
	if res.Machine[0].TimeSeconds > boundary {
		t.Fatalf("restarted binary lost pre-restart history (boundary t=%g)", boundary)
	}
}

func TestStoreQueryOpenMetricsVariant(t *testing.T) {
	dir := t.TempDir()
	d, ts, shutdown := bootDaemon(t, dir)
	defer shutdown()
	waitUntil(t, "records", func() bool { return d.Stores()[""].Records() >= 5 })

	resp, err := http.Get(ts.URL + "/api/v1/query?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q, want application/openmetrics-text (the export carries OpenMetrics 1.0 timestamps)", ct)
	}
	status, body := get(t, ts.URL+"/api/v1/query?format=openmetrics")
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	for _, want := range []string{
		"# TYPE tiptop_range_machine_ipc gauge",
		"tiptop_range_cpu_pct{pid=",
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("OpenMetrics body missing %q:\n%s", want, body)
		}
	}

	status, body = get(t, ts.URL+"/api/v1/query?format=nonsense")
	if status != http.StatusBadRequest {
		t.Fatalf("bad format got HTTP %d: %s", status, body)
	}
	status, body = get(t, ts.URL+"/api/v1/query?pid=banana")
	if status != http.StatusBadRequest {
		t.Fatalf("bad pid got HTTP %d: %s", status, body)
	}
}

// TestQueryWithoutStore: a daemon without -store answers raw range
// queries from its recorder's in-memory store, as it does expressions.
func TestQueryWithoutStore(t *testing.T) {
	d, srv := testDaemon(t)
	pid := d.Recorder().PIDs()[0]
	status, body := get(t, srv.URL+"/api/v1/query?pid="+strconv.Itoa(pid))
	var res tiptop.StoreResult
	if err := json.Unmarshal([]byte(body), &res); status != http.StatusOK || err != nil {
		t.Fatalf("got HTTP %d (%v): %s", status, err, body)
	}
	if res.PID != pid || len(res.Series) == 0 || len(res.Machine) == 0 || len(res.Columns) == 0 {
		t.Fatalf("raw query of pid %d from the in-memory store: %s", pid, body)
	}
	for _, s := range res.Series {
		if s.PID != pid || len(s.Points) == 0 {
			t.Fatalf("series %+v in pid %d's answer", s, pid)
		}
	}
}

// TestStorelessDaemonQueriesEveryEvent: a daemon without -store on the
// wide screen answers an expression over an event beyond INSTRUCTIONS,
// CYCLES and CACHE_MISSES, as a -store daemon does.
func TestStorelessDaemonQueriesEveryEvent(t *testing.T) {
	srv := start(t, newDaemon(t, tiptop.Config{Interval: 10 * time.Millisecond, Screen: "wide"}, tiptop.DaemonOptions{Sim: sim(t, "datacenter")}))
	waitUntil(t, "the first refreshes", func() bool { return srv.Refreshes() >= 3 })
	status, body := get(t, srv.URL+"/api/v1/query?expr=delta(BRANCH_MISSES)&step=2")
	var res tiptop.QueryResult
	if err := json.Unmarshal([]byte(body), &res); status != http.StatusOK || err != nil {
		t.Fatalf("got HTTP %d (%v): %s", status, err, body)
	}
	if len(res.Series) == 0 {
		t.Fatalf("delta(BRANCH_MISSES) answered no series: %s", body)
	}
}

// TestFleetPerAgentDurableStores: a -join -store aggregator persists
// each agent's stream into its own store and routes /api/v1/query by
// the agent selector.
func TestFleetPerAgentDurableStores(t *testing.T) {
	agents := []*agent{startAgent(t, "datacenter"), startAgent(t, "spec")}
	defer func() {
		for _, a := range agents {
			a.close(t)
		}
	}()
	fd, ts := startFleet(t, tiptop.Config{StoreDir: t.TempDir()}, agents)
	stores := fd.Stores()
	if len(stores) != 2 {
		t.Fatalf("expected one store per agent, got %d", len(stores))
	}
	for label, st := range stores {
		st := st
		waitUntil(t, "store of "+label, func() bool { return st.Records() >= 5 })
	}

	for label := range stores {
		status, body := get(t, ts.URL+"/api/v1/query?agent="+url.QueryEscape(label))
		if status != http.StatusOK {
			t.Fatalf("agent %s: HTTP %d: %s", label, status, body)
		}
		if !strings.Contains(body, `"series"`) || !strings.Contains(body, `"points"`) {
			t.Fatalf("agent %s: no series in %s", label, body)
		}
	}
	// Ambiguous selector with two agents.
	status, body := get(t, ts.URL+"/api/v1/query")
	if status != http.StatusBadRequest || !strings.Contains(body, "agent=") {
		t.Fatalf("missing agent selector got HTTP %d: %s", status, body)
	}
	status, body = get(t, ts.URL+"/api/v1/query?agent=nope")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown agent got HTTP %d: %s", status, body)
	}
}

// TestFleetStorelessAgentQueries: a -join aggregator without -store
// lists the query forms and answers them from each machine's in-memory
// store, ?agent= selecting as it does with -store.
func TestFleetStorelessAgentQueries(t *testing.T) {
	agents := []*agent{startAgent(t, "datacenter"), startAgent(t, "spec")}
	defer func() {
		for _, a := range agents {
			a.close(t)
		}
	}()
	fd, ts := startFleet(t, tiptop.Config{}, agents)
	waitUntil(t, "both agents' refreshes", func() bool { return fd.Refreshes() >= 10 })
	if _, body := get(t, ts.URL+"/"); !strings.Contains(body, "/api/v1/query?agent=*&expr=") {
		t.Fatalf("the index page lists no query form:\n%s", body)
	}
	status, body := get(t, ts.URL+"/api/v1/query?agent=*&expr=delta(INSTRUCTIONS)&step=1")
	if status != http.StatusOK {
		t.Fatalf("agent=*: HTTP %d: %s", status, body)
	}
	for _, a := range agents {
		label := strings.TrimPrefix(a.URL, "http://")
		if !strings.Contains(body, label) {
			t.Fatalf("agent=* answers no series of %s: %.400s", label, body)
		}
		status, body := get(t, ts.URL+"/api/v1/query?agent="+url.QueryEscape(label))
		if status != http.StatusOK || !strings.Contains(body, `"points"`) {
			t.Fatalf("agent %s: HTTP %d: %.400s", label, status, body)
		}
	}
}

// TestFleetStoreDirCollision: two agent labels that sanitize to the
// same store directory must be rejected, not silently share segments.
func TestFleetStoreDirCollision(t *testing.T) {
	base := t.TempDir()
	err := run([]string{"-join", "host:9412,host_9412", "-addr", "127.0.0.1:0", "-n", "1", "-store", base}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "same store directory") {
		t.Fatalf("colliding labels accepted: %v", err)
	}
}

// TestLoopSurfacesStoreError: when durable appends start failing, the
// sampling loop must stop with an error instead of serving on while
// history silently goes missing.
func TestLoopSurfacesStoreError(t *testing.T) {
	d := newDaemon(t, tiptop.Config{Interval: time.Millisecond, StoreDir: t.TempDir()}, tiptop.DaemonOptions{Sim: sim(t, "datacenter"), Refreshes: 5})
	defer d.Close()
	// Simulate the store failing mid-run (disk gone, etc.): every
	// subsequent append latches an error the loop must notice.
	if err := d.Stores()[""].Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(context.Background(), ln)
	if err == nil || !strings.Contains(err.Error(), "store") {
		t.Fatalf("loop ignored the failing store: %v", err)
	}
}

// TestFleetCompactsAgentStores: -compact (and <options compact=>)
// applies to the per-agent stores of a -join aggregator exactly as to a
// solo daemon's store — the startup pass merges what earlier boots left
// as several small sealed segments. The aggregator used to ignore it.
func TestFleetCompactsAgentStores(t *testing.T) {
	a := startAgent(t, "datacenter")
	defer a.close(t)
	confFile := filepath.Join(t.TempDir(), "c.xml")
	if err := os.WriteFile(confFile, []byte(`<tiptop><options compact="1h"/></tiptop>`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, compactArgs := range map[string][]string{
		"flag":   {"-compact", "1h"},
		"config": {"-config", confFile},
	} {
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			dir := agentStoreDir(base, a.host())
			// An earlier boot left several small sealed segments.
			st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{SegmentBytes: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := tiptop.NewNamedScenario("spec", 0.01)
			if err != nil {
				t.Fatal(err)
			}
			mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()
			rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
			rec.Tee(st)
			mon.Subscribe(rec)
			for i := 0; i < 40; i++ {
				if _, err := mon.Sample(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if segs, _ := filepath.Glob(filepath.Join(dir, "raw-*.seg")); len(segs) < 3 {
				t.Fatalf("fixture left %d raw segments, want several", len(segs))
			}
			var out strings.Builder
			args := append([]string{"-join", a.host(), "-addr", "127.0.0.1:0", "-n", "3", "-store", base}, compactArgs...)
			if err := run(args, &out); err != nil {
				t.Fatalf("run(%q): %v\n%s", args, err, out.String())
			}
			if merged, _ := filepath.Glob(filepath.Join(dir, "raw-*.cseg")); len(merged) == 0 {
				t.Fatalf("the agent's store was never compacted; daemon said:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "store compacted: ") {
				t.Fatalf("no compaction banner in:\n%s", out.String())
			}
		})
	}
}

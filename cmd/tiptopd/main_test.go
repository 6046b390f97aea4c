package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/remote"
)

// newDaemon builds a daemon the way run does, over a fast simulated
// scenario (scale 0.01) unless opt joins agents, with the rings the
// tests read.
func newDaemon(t *testing.T, cfg tiptop.Config, opt tiptop.DaemonOptions) *tiptop.Daemon {
	t.Helper()
	opt.Scale = 0.01
	opt.History, opt.Window = 64, time.Second
	d, err := tiptop.NewDaemon(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// live is a daemon running as run runs it — Run on an ephemeral port —
// until stop, which returns what Run and Close returned. The test's
// cleanup stops it too; stopping twice is safe.
type live struct {
	*tiptop.Daemon
	URL  string
	stop func() error
}

// start runs d on 127.0.0.1:0 and returns it live.
func start(t *testing.T, d *tiptop.Daemon) *live {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, ln) }()
	l := &live{Daemon: d, URL: "http://" + ln.Addr().String()}
	l.stop = sync.OnceValue(func() error {
		cancel()
		return errors.Join(<-done, d.Close())
	})
	t.Cleanup(func() {
		if err := l.stop(); err != nil {
			t.Errorf("daemon: %v", err)
		}
	})
	return l
}

// testDaemon runs a daemon over a fast simulated datacenter scenario
// and waits for its first refreshes.
func testDaemon(t *testing.T) (*tiptop.Daemon, *live) {
	t.Helper()
	srv := start(t, newDaemon(t, tiptop.Config{Interval: 10 * time.Millisecond}, tiptop.DaemonOptions{Sim: "datacenter"}))
	waitUntil(t, "the first refreshes", func() bool { return srv.Refreshes() >= 2 })
	return srv.Daemon, srv
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
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestDaemonEndToEndConcurrentScrapers is the subsystem's acceptance
// test: a live simulated scenario behind the daemon, hammered by many
// concurrent scrapers across all endpoints while the sampler keeps
// refreshing. Run under -race it doubles as the concurrency
// regression suite.
func TestDaemonEndToEndConcurrentScrapers(t *testing.T) {
	d, srv := testDaemon(t)
	pids := d.Recorder().PIDs()
	if len(pids) != 11 {
		t.Fatalf("pids = %v, want the 11 Figure 1 processes", pids)
	}

	const scrapers = 10
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, scrapers*rounds)
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				var url string
				switch (worker + n) % 3 {
				case 0:
					url = srv.URL + "/metrics"
				case 1:
					url = srv.URL + "/api/v1/snapshot"
				default:
					url = fmt.Sprintf("%s/api/v1/history?pid=%d", srv.URL, pids[n%len(pids)])
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
				}
				if len(body) == 0 {
					errs <- fmt.Errorf("%s: empty body", url)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The endpoints carry what they claim while sampling continues.
	status, metrics := get(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, want := range []string{
		"tiptop_tasks 11",
		`tiptop_user_tasks{user="user1"} 8`,
		"tiptop_machine_instructions_total",
		"# EOF",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	_, snapBody := get(t, srv.URL+"/api/v1/snapshot")
	var snap struct {
		MachineName string `json:"machine_name"`
		Refreshes   uint64 `json:"refreshes"`
		Machine     struct {
			Tasks        int     `json:"tasks"`
			IPC          float64 `json:"ipc"`
			Instructions uint64  `json:"instructions_total"`
		} `json:"machine"`
		Tasks []struct {
			PID     int     `json:"pid"`
			Command string  `json:"command"`
			IPC     float64 `json:"ipc"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(snapBody), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v\n%s", err, snapBody)
	}
	if len(snap.Tasks) != 11 || snap.Refreshes < 2 || !strings.Contains(snap.MachineName, "E5640") {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The machine-wide aggregate must survive the JSON embedding.
	if snap.Machine.Tasks != 11 || snap.Machine.IPC <= 0 || snap.Machine.Instructions == 0 {
		t.Fatalf("machine aggregate lost in snapshot: %+v", snap.Machine)
	}

	_, histBody := get(t, fmt.Sprintf("%s/api/v1/history?pid=%d", srv.URL, pids[0]))
	var hist struct {
		PID    int `json:"pid"`
		Series []struct {
			Command string `json:"command"`
			Points  []struct {
				TimeSeconds float64 `json:"time_s"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(histBody), &hist); err != nil {
		t.Fatalf("history JSON: %v\n%s", err, histBody)
	}
	if len(hist.Series) != 1 || len(hist.Series[0].Points) < 2 {
		t.Fatalf("history = %+v", hist)
	}
}

// TestDaemonHistoryErrors: /api/v1/history fails through the shared
// API error envelope, byte for byte what remote.WriteError writes, and
// rejects a pid /api/v1/query would reject.
func TestDaemonHistoryErrors(t *testing.T) {
	_, srv := testDaemon(t)
	for _, tc := range []struct {
		query  string
		status int
		msg    string
	}{
		{"pid=999999", http.StatusNotFound, "pid 999999 was never observed"},
		{"pid=abc", http.StatusBadRequest, `bad pid "abc"`},
		{"pid=-1", http.StatusBadRequest, `bad pid "-1"`},
	} {
		status, body := get(t, srv.URL+"/api/v1/history?"+tc.query)
		want := httptest.NewRecorder()
		remote.WriteError(want, tc.status, tc.msg)
		if status != tc.status || body != want.Body.String() {
			t.Errorf("history?%s = %d %q, want %d %q", tc.query, status, body, tc.status, want.Body.String())
		}
	}
	status, body := get(t, srv.URL+"/api/v1/history")
	if status != http.StatusOK || !strings.Contains(body, "pids") {
		t.Fatalf("pid listing = %d %q", status, body)
	}
	if status, _ := get(t, srv.URL+"/api/v1/nope"); status != http.StatusNotFound {
		t.Fatalf("unknown endpoint status = %d, want 404", status)
	}
}

// TestRunFiniteServe drives the real run() for a bounded number of
// refreshes on an ephemeral port.
func TestRunFiniteServe(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-sim", "datacenter", "-addr", "127.0.0.1:0",
		"-d", "0.01", "-n", "5", "-scale", "0.01",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "serving http://") {
		t.Fatalf("stdout = %q", sb.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-d", "0"},
		{"-d", "-1"},
		{"-history", "-5"},
		{"-window", "-30s"},
		{"-sort", "bogus", "-sim", "spec"},
		{"-screen", "bogus", "-sim", "spec"},
		{"-sim", "wargames"},
		{"-bogusflag"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v must fail", args)
		}
	}
	// -j is not a flag: refused, never accepted and ignored.
	err := run([]string{"-j", "2", "-sim", "spec", "-n", "1", "-addr", "127.0.0.1:0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -j") {
		t.Errorf("-j 2: %v, want the unknown-flag error", err)
	}
}

// TestDaemonSystemWideEndToEnd: a system-wide (per-CPU) simulated
// monitor behind the full daemon, with a durable store teed in. The
// per-CPU rows must surface on /metrics as cpuN tasks and round-trip
// through the store-backed /api/v1/query?expr= endpoint.
func TestDaemonSystemWideEndToEnd(t *testing.T) {
	srv := start(t, newDaemon(t, tiptop.Config{
		Interval:   10 * time.Millisecond,
		SystemWide: true,
		StoreDir:   t.TempDir(),
	}, tiptop.DaemonOptions{Sim: "steady"}))
	waitUntil(t, "the first refreshes", func() bool { return srv.Refreshes() >= 4 })

	// The scrape carries one task per logical CPU of the A7.
	_, metrics := get(t, srv.URL+"/metrics")
	for cpu := 0; cpu < 4; cpu++ {
		want := fmt.Sprintf("command=%q", fmt.Sprintf("cpu%d", cpu))
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing per-CPU task %s", want)
		}
	}
	if !strings.Contains(metrics, "tiptop_task_coverage") {
		t.Error("/metrics missing the coverage gauge family")
	}

	// Store-backed expression query over the recorded per-CPU history.
	status, body := get(t, srv.URL+"/api/v1/query?expr=rate(CYCLES)")
	if status != http.StatusOK {
		t.Fatalf("query status = %d: %s", status, body)
	}
	var res struct {
		Series []struct {
			Command string `json:"command"`
			Points  []struct {
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("query JSON: %v\n%s", err, body)
	}
	cpus := map[string]bool{}
	for _, s := range res.Series {
		if strings.HasPrefix(s.Command, "cpu") && len(s.Points) > 0 {
			cpus[s.Command] = true
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		if name := fmt.Sprintf("cpu%d", cpu); !cpus[name] {
			t.Errorf("query result missing series for %s (got %v)", name, cpus)
		}
	}
}

// TestDaemonEventsEndpoint: /api/v1/events serves the registry in
// deterministic name order with the sim backend's support status and
// the attached set of the default screen.
func TestDaemonEventsEndpoint(t *testing.T) {
	_, srv := testDaemon(t)
	get := func() []tiptop.EventInfo {
		resp, err := http.Get(srv.URL + "/api/v1/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var body struct {
			Events []tiptop.EventInfo `json:"events"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Events
	}
	events := get()
	if len(events) != 15 {
		t.Fatalf("events = %d, want the 15 defaults", len(events))
	}
	byName := map[string]tiptop.EventInfo{}
	for i, e := range events {
		byName[e.Name] = e
		if i > 0 && events[i-1].Name >= e.Name {
			t.Fatalf("events not sorted by name: %q before %q", events[i-1].Name, e.Name)
		}
	}
	cycles := byName["CYCLES"]
	if !cycles.Supported["sim"] || !cycles.Attached || cycles.Kind != "generic" {
		t.Fatalf("CYCLES = %+v", cycles)
	}
	// The default screen does not reference branches; the event is
	// supported but unattached.
	branches := byName["BRANCHES"]
	if !branches.Supported["sim"] || branches.Attached {
		t.Fatalf("BRANCHES = %+v", branches)
	}
	// Deterministic across requests.
	again := get()
	if !reflect.DeepEqual(events, again) {
		t.Fatal("events listing changed between requests")
	}
}

package tiptop_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/remote"
)

// scenario builds the named scenario as -sim name -scale 0.01 does.
func scenario(t *testing.T, name string) *tiptop.Scenario {
	t.Helper()
	sc, err := tiptop.NewNamedScenario(name, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runDaemon builds a daemon and runs it on 127.0.0.1:0 until the test
// ends, when it checks what Run and Close returned; it returns the
// daemon and its base URL.
func runDaemon(t *testing.T, cfg tiptop.Config, opt tiptop.DaemonOptions) (*tiptop.Daemon, string) {
	t.Helper()
	d, err := tiptop.NewDaemon(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := errors.Join(<-done, d.Close()); err != nil {
			t.Errorf("daemon: %v", err)
		}
	})
	return d, "http://" + ln.Addr().String()
}

// waitFor polls cond until it holds, failing the test short of its
// deadline.
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

// indexAnswers GETs every path base's index page lists — a parameter
// left empty (or the N placeholder) filled from fill — and fails on any
// status but 200. It returns the paths it asked for.
func indexAnswers(t *testing.T, base string, fill map[string]string) []string {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("index: HTTP %d (%v)", resp.StatusCode, err)
	}
	_, listing, _ := strings.Cut(string(page), "\n\n")
	var asked []string
	for _, line := range strings.Fields(listing) {
		u, err := url.Parse(line)
		if err != nil {
			t.Fatalf("index line %q: %v", line, err)
		}
		q := u.Query()
		for name := range q {
			if v := q.Get(name); v == "" || v == "N" {
				if f, ok := fill[name]; ok {
					q.Set(name, f)
				}
			}
		}
		u.RawQuery = q.Encode()
		// Headers are enough: the stream never ends by itself.
		resp, err := client.Get(base + u.String())
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s (listed as %s): HTTP %d", u, line, resp.StatusCode)
		}
		asked = append(asked, u.Path)
	}
	return asked
}

// TestDaemonIndexRoutesAnswer: every endpoint a daemon's index page
// lists answers 200 — a solo daemon with a store, and an aggregator
// with per-agent stores joining two of them. The page and the mux come
// from one route table, so a listed path without a handler (or the
// reverse) cannot ship.
func TestDaemonIndexRoutesAnswer(t *testing.T) {
	cfg := func() tiptop.Config {
		return tiptop.Config{Interval: 10 * time.Millisecond, StoreDir: t.TempDir()}
	}
	solo, soloURL := runDaemon(t, cfg(), tiptop.DaemonOptions{Sim: scenario(t, "datacenter")})
	_, specURL := runDaemon(t, cfg(), tiptop.DaemonOptions{Sim: scenario(t, "spec")})
	waitFor(t, "the solo store", func() bool { return solo.Stores()[""].Records() >= 3 })
	pid := strconv.Itoa(solo.Recorder().PIDs()[0])

	asked := indexAnswers(t, soloURL, map[string]string{"pid": pid, "expr": "CYCLES", "step": "1"})
	if want := []string{"/metrics", "/api/v1/snapshot", "/api/v1/history", "/api/v1/events",
		"/api/v1/sample", "/api/v1/stream", "/api/v1/query", "/api/v1/query"}; strings.Join(asked, " ") != strings.Join(want, " ") {
		t.Errorf("solo index lists %v, want %v", asked, want)
	}

	fleet, fleetURL := runDaemon(t, cfg(), tiptop.DaemonOptions{
		Join: []string{soloURL, specURL},
	})
	label := strings.TrimPrefix(soloURL, "http://")
	waitFor(t, "every agent's store", func() bool {
		for _, st := range fleet.Stores() {
			if st.Records() < 3 {
				return false
			}
		}
		return true
	})
	asked = indexAnswers(t, fleetURL, map[string]string{"pid": pid, "agent": label, "expr": "CYCLES", "step": "1"})
	if want := []string{"/metrics", "/api/v1/snapshot", "/api/v1/agents", "/api/v1/stream",
		"/api/v1/query", "/api/v1/query"}; strings.Join(asked, " ") != strings.Join(want, " ") {
		t.Errorf("aggregator index lists %v, want %v", asked, want)
	}
}

// TestDaemonRefreshReturnsWhatItServes: the sample Refresh returns is
// the one the daemon then serves at /api/v1/sample — its time, and
// every row's identity, columns and event deltas.
func TestDaemonRefreshReturnsWhatItServes(t *testing.T) {
	d, err := tiptop.NewDaemon(tiptop.Config{Interval: time.Second}, tiptop.DaemonOptions{Sim: scenario(t, "datacenter")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := d.Handler()
	for i := 0; i < 3; i++ { // the attach pass, then two refreshes
		s, err := d.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/sample", nil))
		var served remote.Sample
		if err := json.Unmarshal(w.Body.Bytes(), &served); err != nil {
			t.Fatalf("GET /api/v1/sample: %d %v", w.Code, err)
		}
		if served.TimeSeconds != s.Time.Seconds() || len(served.Rows) != len(s.Rows) || len(s.Rows) == 0 {
			t.Fatalf("refresh %d returned %d rows at t=%v, the daemon serves %d at t=%gs",
				i, len(s.Rows), s.Time, len(served.Rows), served.TimeSeconds)
		}
		for j, row := range s.Rows {
			got := served.Rows[j]
			if got.PID != row.PID || got.Command != row.Command || !slices.Equal(got.Values, row.Columns) || !maps.Equal(got.Events, row.Events) {
				t.Fatalf("refresh %d row %d: returned %+v, served %+v", i, j, row, got)
			}
		}
	}
}

// TestDaemonCloseReportsStoreFailure: a store that stops appending
// beneath a daemon fails its next Refresh, and Close reports it rather
// than letting the process exit 0.
func TestDaemonCloseReportsStoreFailure(t *testing.T) {
	d, err := tiptop.NewDaemon(tiptop.Config{Interval: time.Millisecond, StoreDir: t.TempDir()},
		tiptop.DaemonOptions{Sim: scenario(t, "datacenter")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatalf("healthy refresh: %v", err)
	}
	// The disk goes away: every append from here on latches an error.
	if err := d.Stores()[""].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refresh(); err == nil || !strings.Contains(err.Error(), "store") {
		t.Fatalf("Refresh over a failed store: %v", err)
	}
	if err := d.Close(); err == nil {
		t.Fatal("Close hid the failed store")
	}
}

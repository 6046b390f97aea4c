package main

// e2e of the -connect flag: the classic batch UI rendering rows that
// arrive over the wire from a (simulated) remote daemon.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/remote"
)

// startWireAgent serves a simulated monitor over the wire protocol,
// publishing refreshes continuously like tiptopd's sampling loop.
func startWireAgent(t *testing.T) *httptest.Server {
	t.Helper()
	sc, err := tiptop.NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(nil)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)

	publish := func(s *tiptop.Sample) error {
		return srv.Publish(mon.WireSample(s))
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, err := mon.SampleNow()
		if err != nil {
			return
		}
		if err := publish(s); err != nil {
			return
		}
		pace := time.NewTicker(time.Millisecond)
		defer pace.Stop()
		for {
			select {
			case <-stop:
				return
			case <-pace.C:
			}
			s, err := mon.Sample()
			if err != nil {
				return
			}
			if err := publish(s); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		srv.Close()
		ts.Close()
		mon.Close()
	})
	return ts
}

// TestRunConnectBatch is the -connect acceptance path: `tiptop -connect
// URL -b -n 3` renders live remote rows through the existing batch UI.
func TestRunConnectBatch(t *testing.T) {
	ts := startWireAgent(t)
	var sb strings.Builder
	if err := run([]string{"-connect", ts.URL, "-b", "-n", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "--- t="); got != 3 {
		t.Fatalf("rendered %d blocks, want 3:\n%s", got, out)
	}
	for _, want := range []string{"PID", "USER", "%CPU", "IPC", "COMMAND", "process1", "user1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("batch output missing %q:\n%s", want, out)
		}
	}
}

// TestRunConnectCSV: the CSV/JSONL sinks run unchanged against a remote
// monitor.
func TestRunConnectCSV(t *testing.T) {
	ts := startWireAgent(t)
	var sb strings.Builder
	if err := run([]string{"-connect", ts.URL, "-b", "-n", "2", "-o", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.HasPrefix(lines[0], "time_s,pid,tid,user,command") {
		t.Fatalf("csv header = %q", lines[0])
	}
	// Two refreshes of the 11-task datacenter node.
	if len(lines) != 1+2*11 {
		t.Fatalf("csv lines = %d, want header + 22 rows\n%s", len(lines), sb.String())
	}
}

func TestRunConnectValidation(t *testing.T) {
	if err := run([]string{"-connect", "127.0.0.1:1", "-sim", "spec"}, io.Discard); err == nil {
		t.Fatal("-connect with -sim must fail")
	}
	// Nothing listening: a fast, useful error.
	if err := run([]string{"-connect", "127.0.0.1:1", "-b", "-n", "1"}, io.Discard); err == nil {
		t.Fatal("-connect to a dead address must fail")
	}
}

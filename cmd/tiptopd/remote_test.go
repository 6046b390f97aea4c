package main

// End-to-end coverage of the wire surface: a RemoteMonitor against a
// live httptest tiptopd must reproduce the local monitor byte-for-byte,
// and the cached /metrics must honor ETag revalidation.

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tiptop"
)

// twinMonitor builds one of two identically seeded sim monitors.
func twinMonitor(t *testing.T) *tiptop.Monitor {
	t.Helper()
	sc, err := tiptop.NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// twinDaemon is a daemon over the twin of twinMonitor, driven by hand
// through Refresh.
func twinDaemon(t *testing.T) *tiptop.Daemon {
	t.Helper()
	return newDaemon(t, tiptop.Config{Interval: 50 * time.Millisecond}, tiptop.DaemonOptions{Sim: "datacenter"})
}

// sameRows compares public samples field by field. Start travels the
// wire as float seconds, so it is compared with a nanosecond-scale
// tolerance instead of bit equality.
func sameRows(t *testing.T, step int, local, remote *tiptop.Sample) {
	t.Helper()
	if local.Time != remote.Time {
		t.Fatalf("step %d: time %v != %v", step, local.Time, remote.Time)
	}
	if len(local.Rows) != len(remote.Rows) {
		t.Fatalf("step %d: %d rows != %d rows", step, len(local.Rows), len(remote.Rows))
	}
	for i := range local.Rows {
		l, r := local.Rows[i], remote.Rows[i]
		if l.PID != r.PID || l.TID != r.TID || l.User != r.User || l.Command != r.Command ||
			l.State != r.State || l.CPUPct != r.CPUPct || l.IPC != r.IPC || l.Monitored != r.Monitored {
			t.Fatalf("step %d row %d:\nlocal  %+v\nremote %+v", step, i, l, r)
		}
		if len(l.Columns) != len(r.Columns) {
			t.Fatalf("step %d row %d: column counts differ", step, i)
		}
		for j := range l.Columns {
			if l.Columns[j] != r.Columns[j] {
				t.Fatalf("step %d row %d col %d: %v != %v", step, i, j, l.Columns[j], r.Columns[j])
			}
		}
		for e, v := range l.Events {
			if r.Events[e] != v {
				t.Fatalf("step %d row %d event %s: %d != %d", step, i, e, v, r.Events[e])
			}
		}
		if math.Abs(l.Start.Seconds()-r.Start.Seconds()) > 1e-6 {
			t.Fatalf("step %d row %d: start %v != %v", step, i, l.Start, r.Start)
		}
	}
}

// TestRemoteMonitorByteIdentical drives a local monitor and a
// RemoteMonitor over a twin daemon through the same refreshes: the
// converted samples must match and the rendered batch blocks must be
// byte-identical — the acceptance contract of `tiptop -connect`.
func TestRemoteMonitorByteIdentical(t *testing.T) {
	local := twinMonitor(t)
	defer local.Close()
	d := twinDaemon(t)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Close()

	ls, err := local.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}

	rm, err := tiptop.NewRemoteMonitor(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if got, want := rm.Interval(), local.Interval(); got != want {
		t.Fatalf("remote interval %v != %v", got, want)
	}
	if !strings.Contains(rm.Machine(), local.Machine()) {
		t.Fatalf("remote machine %q does not carry %q", rm.Machine(), local.Machine())
	}
	for i, h := range local.Headers() {
		if rm.Headers()[i] != h {
			t.Fatalf("headers differ: %v vs %v", rm.Headers(), local.Headers())
		}
	}
	for i, c := range local.Columns() {
		if rm.Columns()[i] != c {
			t.Fatalf("columns differ: %v vs %v", rm.Columns(), local.Columns())
		}
	}

	// A remote recorder fed from converted samples, like a local one.
	remoteRec := tiptop.NewRecorder(tiptop.RecorderOptions{Capacity: 32})
	rm.Subscribe(remoteRec)

	rs, err := rm.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, 0, ls, rs)

	for step := 1; step <= 4; step++ {
		ls, err = local.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		rs, err = rm.Sample()
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, step, ls, rs)

		var lb, rb bytes.Buffer
		if err := local.Render(&lb, ls); err != nil {
			t.Fatal(err)
		}
		if err := rm.Render(&rb, rs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
			t.Fatalf("step %d renders differ:\nlocal:\n%s\nremote:\n%s", step, lb.String(), rb.String())
		}
	}

	// The subscribed remote recorder saw every converted refresh.
	if snap := remoteRec.Snapshot(); snap.Refreshes != 5 || snap.Machine.Tasks != 11 {
		t.Fatalf("remote recorder snapshot = refreshes %d tasks %d", snap.Refreshes, snap.Machine.Tasks)
	}
}

// TestDeferredEncodeAgainstLiveSampler: the wire encoders run on the
// readers' goroutines while the loop is already sampling the next
// refresh. Under -race this is the proof that a published sample shares
// nothing the sampler still writes.
func TestDeferredEncodeAgainstLiveSampler(t *testing.T) {
	_, srv := testDaemon(t)
	var wg sync.WaitGroup
	for _, wire := range []string{"json", "binary"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rm, err := tiptop.NewRemoteMonitorWire(srv.URL, wire)
			if err != nil {
				t.Error(err)
				return
			}
			defer rm.Close()
			var last time.Duration
			for i := 0; i < 40; i++ {
				s, err := rm.Sample()
				if err != nil {
					t.Errorf("%s stream: %v", wire, err)
					return
				}
				if s.Time <= last || len(s.Rows) == 0 {
					t.Errorf("%s stream: sample at %v after %v with %d rows", wire, s.Time, last, len(s.Rows))
					return
				}
				last = s.Time
			}
		}()
	}
	wg.Wait()
}

// TestDaemonMetricsETag: the cached /metrics revalidates with ETags —
// unchanged refresh version means a bodyless 304, a new refresh a new
// body — and /api/v1/sample serves the latest wire sample.
func TestDaemonMetricsETag(t *testing.T) {
	d := twinDaemon(t)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Close()

	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || !strings.Contains(string(body), "tiptop_tasks 11") {
		t.Fatalf("/metrics status=%d etag=%q", resp.StatusCode, etag)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("revalidation = %d with %d bytes", resp.StatusCode, len(b))
	}

	// A new refresh invalidates the ETag.
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == etag {
		t.Fatalf("post-refresh revalidation = %d etag=%q (old %q)", resp.StatusCode, resp.Header.Get("ETag"), etag)
	}

	// The wire sample endpoint carries the daemon's machine and rows.
	status, sampleBody := get(t, ts.URL+"/api/v1/sample")
	if status != http.StatusOK || !strings.Contains(sampleBody, `"machine"`) || !strings.Contains(sampleBody, `"rows"`) {
		t.Fatalf("/api/v1/sample = %d %q", status, sampleBody[:min(len(sampleBody), 120)])
	}
}

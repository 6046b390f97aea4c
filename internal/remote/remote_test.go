package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiptop/internal/hpm"
)

func testSample(refresh uint64, t float64) *Sample {
	return &Sample{
		V:               WireVersion,
		Refresh:         refresh,
		Machine:         "sim test box",
		IntervalSeconds: 2,
		TimeSeconds:     t,
		Columns: []Column{
			{Name: "ipc", Header: "IPC", Width: 6, Format: "%6.2f"},
			{Name: "dmis", Header: "DMIS", Width: 6, Format: "%6.2f"},
		},
		Rows: []Row{
			{
				PID: 101, TID: 101, User: "alice", Command: "mcf", State: "R",
				CPUPct: 99.5, IPC: 0.7, Monitored: true, StartSeconds: 1.5,
				Values: []float64{0.7, 2.25},
				Events: map[string]uint64{"CYCLES": 1000, "INSTRUCTIONS": 700},
			},
			{
				PID: 102, User: "bob", Command: "idle", CPUPct: 0,
				Monitored: false, Values: []float64{0, 0},
			},
		},
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

func TestWireRoundTrip(t *testing.T) {
	in := testSample(7, 12.5)
	data, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(data, '\n') {
		t.Fatal("encoded sample contains a newline; unsafe for SSE data fields")
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if out.Interval() != 2*time.Second {
		t.Fatalf("Interval = %v", out.Interval())
	}
	if got := out.Headers(); !reflect.DeepEqual(got, []string{"IPC", "DMIS"}) {
		t.Fatalf("Headers = %v", got)
	}
	if got := out.ColumnNames(); !reflect.DeepEqual(got, []string{"ipc", "dmis"}) {
		t.Fatalf("ColumnNames = %v", got)
	}
}

func TestDecodeRejectsNewerVersion(t *testing.T) {
	s := testSample(1, 0)
	s.V = WireVersion + 1
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("decoded a sample from the future")
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Fatal("decoded malformed JSON")
	}
}

func TestCoreSampleConversion(t *testing.T) {
	cs := testSample(1, 10).CoreSample()
	if cs.Time != 10*time.Second {
		t.Fatalf("Time = %v", cs.Time)
	}
	if len(cs.Rows) != 2 {
		t.Fatalf("rows = %d", len(cs.Rows))
	}
	r := cs.Rows[0]
	if r.Info.ID.PID != 101 || r.Info.User != "alice" || r.Info.Comm != "mcf" {
		t.Fatalf("row info = %+v", r.Info)
	}
	if r.Info.StartTime != 1500*time.Millisecond {
		t.Fatalf("StartTime = %v", r.Info.StartTime)
	}
	if r.Count(hpm.EventCycles) != 1000 || r.Count(hpm.EventInstructions) != 700 {
		t.Fatalf("counts = %v", r.Counts)
	}
	if !r.Valid || cs.Rows[1].Valid {
		t.Fatal("Valid flags lost in conversion")
	}
}

// TestCoreSampleCarriesUnknownEvents: events travel by canonical name,
// so counters this build has never heard of (a newer agent's
// user-defined raw events) survive the wire → engine conversion intact
// instead of being dropped.
func TestCoreSampleCarriesUnknownEvents(t *testing.T) {
	s := testSample(1, 1)
	s.Rows[0].Events["FUTURE_EVENT"] = 42
	cs := s.CoreSample()
	if got := cs.Rows[0].Count("FUTURE_EVENT"); got != 42 {
		t.Fatalf("counts = %v, want FUTURE_EVENT carried through", cs.Rows[0].Counts)
	}
}

func TestScreenSynthesis(t *testing.T) {
	sc := testSample(1, 0).Screen()
	if len(sc.Columns) != 2 || sc.Columns[0].Header != "IPC" || sc.Columns[0].Width != 6 {
		t.Fatalf("screen = %+v", sc.Columns[0])
	}
	// Defaults fill in when the wire omits display attributes.
	s := testSample(1, 0)
	s.Columns[0].Width = 0
	s.Columns[0].Format = ""
	sc = s.Screen()
	if sc.Columns[0].Width != 6 || sc.Columns[0].Format != "%8.2f" {
		t.Fatalf("defaults not applied: %+v", sc.Columns[0])
	}
}

// hubSample is a minimal publishable sample whose time marks it.
func hubSample(n int) *Sample {
	return &Sample{V: WireVersion, Refresh: uint64(n), Machine: "m", TimeSeconds: float64(n)}
}

// wantSSE is the SSE frame the hub must build for a sample: the
// reference is json.Marshal, not the encoder under test.
func wantSSE(t *testing.T, id uint64, s *Sample) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("id: %d\nevent: sample\ndata: %s\n\n", id, data)
}

func TestHubFanout(t *testing.T) {
	hub := NewHub()
	const subs = 8
	chans := make([]<-chan *Frame, subs)
	cancels := make([]func(), subs)
	for i := range chans {
		chans[i], cancels[i] = hub.Subscribe()
	}
	if err := hub.Publish(1, hubSample(1)); err != nil {
		t.Fatal(err)
	}
	if n := hub.encodes[FormatJSON].Load() + hub.encodes[FormatBinary].Load(); n != 0 {
		t.Fatalf("Publish encoded %d frames before anybody asked", n)
	}
	want := wantSSE(t, 1, hubSample(1))
	for i, ch := range chans {
		got := (<-ch).Stream(FormatJSON)
		if string(got) != want {
			t.Fatalf("subscriber %d frame = %q, want %q", i, got, want)
		}
	}
	// A late subscriber gets the latest frame replayed.
	late, cancelLate := hub.Subscribe()
	if got := (<-late).Stream(FormatJSON); string(got) != want {
		t.Fatalf("late subscriber frame = %q", got)
	}
	cancelLate()
	for _, c := range cancels {
		c()
	}
	if n := hub.Subscribers(); n != 0 {
		t.Fatalf("subscribers after cancel = %d", n)
	}
	if j, b := hub.encodes[FormatJSON].Load(), hub.encodes[FormatBinary].Load(); j != 1 || b != 0 {
		t.Fatalf("encodes json=%d binary=%d, want 1 and 0 (nine readers share one encode)", j, b)
	}
}

func TestHubSlowSubscriberDropsOldest(t *testing.T) {
	hub := NewHub()
	ch, cancel := hub.Subscribe()
	defer cancel()
	// Overfill the buffer without draining.
	const published = subscriberBuffer + 5
	for i := 1; i <= published; i++ {
		if err := hub.Publish(uint64(i), hubSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hub.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", hub.Dropped())
	}
	// Only the oldest frames went: what is buffered is the newest
	// subscriberBuffer refreshes, in order.
	for want := published - subscriberBuffer + 1; want <= published; want++ {
		select {
		case f := <-ch:
			if f.id != uint64(want) {
				t.Fatalf("buffered frame %d, want %d", f.id, want)
			}
		default:
			t.Fatalf("frame %d lost", want)
		}
	}
}

func TestHubClose(t *testing.T) {
	hub := NewHub()
	ch, cancel := hub.Subscribe()
	defer cancel()
	hub.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after hub close")
	}
	// Publishing and subscribing after close must not panic or block.
	if err := hub.Publish(1, hubSample(1)); err != nil {
		t.Fatal(err)
	}
	ch2, cancel2 := hub.Subscribe()
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Fatal("subscribe after close returned a live channel")
	}
}

func TestEncodeCache(t *testing.T) {
	encodes := 0
	c := NewEncodeCache(func(w io.Writer) error {
		encodes++
		fmt.Fprintf(w, "body-%d", encodes)
		return nil
	})
	get := func(version uint64) string {
		t.Helper()
		l, err := c.Acquire(version)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
		return string(l.Body)
	}
	for i := 0; i < 5; i++ {
		if body := get(1); body != "body-1" {
			t.Fatalf("Acquire(1) = %q", body)
		}
	}
	if encodes != 1 {
		t.Fatalf("encodes = %d, want 1 (cache must memoize per version)", encodes)
	}
	if body := get(2); body != "body-2" || encodes != 2 {
		t.Fatalf("Acquire(2) = %q after %d encodes", body, encodes)
	}
	if st := c.Stats(); st.Encodes != 2 || st.BodyBytes != len("body-2") {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConditionalScrape: a scraper revalidating the current refresh is
// answered 304 from the version alone — no encode runs for a body nobody
// reads — and any other gets the body with its length declared.
func TestConditionalScrape(t *testing.T) {
	srv := NewServer(func(w io.Writer) error {
		_, err := io.WriteString(w, strings.Repeat("# a metrics body longer than net/http's own length sniffing\n", 100))
		return err
	})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer srv.Close()
	if err := srv.Publish(testSample(0, 1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, presented string
		status          int
		metricsEncodes  uint64 // by /metrics so far
		jsonEncodes     uint64 // by /api/v1/sample so far
	}{
		{"/metrics", `"1"`, http.StatusNotModified, 0, 0},
		{"/api/v1/sample", `"1"`, http.StatusNotModified, 0, 0},
		{"/metrics", `"0"`, http.StatusOK, 1, 0},
		{"/metrics", "", http.StatusOK, 1, 0},
		{"/metrics", `"1"`, http.StatusNotModified, 1, 0},
		{"/api/v1/sample", `"0"`, http.StatusOK, 1, 1},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
		if tc.presented != "" {
			req.Header.Set("If-None-Match", tc.presented)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		name := fmt.Sprintf("%s If-None-Match %s", tc.path, tc.presented)
		if resp.StatusCode != tc.status || resp.Header.Get("ETag") != `"1"` {
			t.Fatalf("%s: status %d ETag %s, want %d \"1\"", name, resp.StatusCode, resp.Header.Get("ETag"), tc.status)
		}
		if m, j := srv.MetricsStats().Encodes, srv.Hub().encodes[FormatJSON].Load(); m != tc.metricsEncodes || j != tc.jsonEncodes {
			t.Fatalf("%s: encodes so far metrics=%d json=%d, want %d %d", name, m, j, tc.metricsEncodes, tc.jsonEncodes)
		}
		if tc.status == http.StatusNotModified {
			if len(body) != 0 {
				t.Fatalf("%s: 304 with %d body bytes", name, len(body))
			}
			continue
		}
		if len(body) == 0 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: %d body bytes, Content-Length %d, Transfer-Encoding %v", name, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestLeasedBodyStaysPut: a reader that holds a body while later
// versions are published and encoded — by readers that come and go, so
// retired bodies are there to be reused — reads the bytes it was given;
// and once it lets go, two bodies alternate.
func TestLeasedBodyStaysPut(t *testing.T) {
	version := 0
	text := []byte(strings.Repeat("x", 64))
	c := NewEncodeCache(func(w io.Writer) error {
		text[0] = byte('0' + version)
		_, err := w.Write(text)
		return err
	})
	acquire := func() *Lease {
		t.Helper()
		version++
		l, err := c.Acquire(uint64(version))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	held := acquire()
	want := string(held.Body)
	arrays := map[*byte]bool{}
	for i := 0; i < 6; i++ {
		l := acquire()
		if &l.Body[0] == &held.Body[0] {
			t.Fatalf("version %d was encoded into the body a reader still holds", version)
		}
		arrays[&l.Body[0]] = true
		l.Release()
	}
	if got := string(held.Body); got != want {
		t.Fatalf("held body changed under its reader: %q, want %q", got, want)
	}
	if len(arrays) != 2 {
		t.Fatalf("6 encodes beside a held body used %d bodies, want 2 alternating", len(arrays))
	}
	held.Release()
	if allocs := testing.AllocsPerRun(10, func() { acquire().Release() }); allocs != 0 {
		t.Fatalf("a steady-state encode allocates %.0f times, want 0", allocs)
	}
}

// TestServerEndpoints exercises the full server+client pair over
// httptest: ETag revalidation on /api/v1/sample and /metrics, stream
// push, and the client's replay deduplication.
func TestServerEndpoints(t *testing.T) {
	srv := NewServer(func(w io.Writer) error {
		_, err := io.WriteString(w, "# metrics\n")
		return err
	})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer srv.Close()

	// No sample yet: 503.
	resp, err := http.Get(ts.URL + "/api/v1/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish sample status = %d", resp.StatusCode)
	}

	if err := srv.Publish(testSample(0, 1)); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/api/v1/sample")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag != `"1"` {
		t.Fatalf("sample status=%d etag=%q", resp.StatusCode, etag)
	}
	ws, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Refresh != 1 || ws.Machine != "sim test box" {
		t.Fatalf("sample = %+v", ws)
	}

	// Revalidation: matching If-None-Match gets a bodyless 304.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/sample", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("revalidation = %d with %d body bytes", resp.StatusCode, len(b))
	}

	// /metrics is ETag'd by the same version counter.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(mb) != "# metrics\n" || resp.Header.Get("ETag") != `"1"` {
		t.Fatalf("/metrics = %q etag=%q", mb, resp.Header.Get("ETag"))
	}

	// Client: Dial picks up the published sample; Next dedupes the
	// stream replay and blocks until the next publish.
	client, err := DialWith(ts.URL, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Machine() != "sim test box" || client.Interval() != 2*time.Second {
		t.Fatalf("client latest = %+v", client.Latest())
	}
	type next struct {
		ws  *Sample
		err error
	}
	got := make(chan next, 1)
	go func() {
		ws, err := client.Next()
		got <- next{ws, err}
	}()
	// Next has connected (and been handed the replayed frame 1, which it
	// skips) once the hub counts its stream.
	waitFor(t, "Next to open its stream", func() bool { return srv.Hub().Subscribers() == 1 })
	if err := srv.Publish(testSample(0, 3)); err != nil {
		t.Fatal(err)
	}
	n := <-got
	if n.err != nil {
		t.Fatal(n.err)
	}
	if n.ws.Refresh != 2 || n.ws.TimeSeconds != 3 {
		t.Fatalf("Next = %+v, want the second publish", n.ws)
	}
}

// TestClientCloseUnblocksNext: Close from another goroutine must
// unblock a pending Next with ErrClosed.
func TestClientCloseUnblocksNext(t *testing.T) {
	srv := NewServer(nil)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer srv.Close()
	if err := srv.Publish(testSample(0, 1)); err != nil {
		t.Fatal(err)
	}
	client, err := DialWith(ts.URL, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Next()
		done <- err
	}()
	waitFor(t, "Next to block on its stream", func() bool { return srv.Hub().Subscribers() == 1 })
	client.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialWith("http://", DialOptions{}); err == nil {
		t.Fatal("dialed an empty host")
	}
	for _, tc := range []struct {
		name string
		h    http.Handler
		want string
	}{
		// A server without the API: Dial must fail with a useful error.
		{"not a tiptopd", http.NotFoundHandler(), "api/v1/sample"},
		// A body past the bound is refused as such, not cut short and
		// then misread as truncated JSON.
		{"oversized sample", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(w, io.MultiReader(strings.NewReader(`{"v":1,"refresh":1,"machine":"`), newlineFree(maxSampleBytes)))
		}), "sample larger than 64 MiB"},
	} {
		ts := httptest.NewServer(tc.h)
		_, err := DialWith(ts.URL, DialOptions{})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Dial = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestDialWaitsForFirstSample: a daemon that answers but has not
// refreshed yet (503 + Retry-After) is waited for, not given up on — the
// race a `tiptop -connect` started right after its tiptopd loses.
func TestDialWaitsForFirstSample(t *testing.T) {
	srv := NewServer(nil)
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first refresh lands between the second poll and the third.
		if polls.Add(1) == 3 {
			if err := srv.Publish(testSample(0, 1)); err != nil {
				t.Error(err)
			}
		}
		srv.HandleSample(w, r)
	}))
	defer ts.Close()

	client, err := DialWith(ts.URL, DialOptions{})
	if err != nil {
		t.Fatalf("Dial gave up on a daemon that was about to be ready: %v", err)
	}
	defer client.Close()
	if got := polls.Load(); got != 3 {
		t.Fatalf("server saw %d polls, want 3 (two 503s, then the sample)", got)
	}
	if client.Latest() == nil || client.Latest().Refresh != 1 {
		t.Fatalf("client latest = %+v", client.Latest())
	}

	// Never ready: the wait is bounded, and the error passes on what the
	// daemon said so the user knows it is up and what to do.
	never := httptest.NewServer(http.HandlerFunc(NewServer(nil).HandleSample))
	defer never.Close()
	resp, err := http.Get(never.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("not-ready answer = %d with Retry-After %q, want 503 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	start := time.Now()
	_, err = dial(context.Background(), never.URL, DialOptions{}, 150*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "no sample yet") || !strings.Contains(err.Error(), "retry shortly") {
		t.Fatalf("dialing a never-ready daemon = %v, want the 503's message and hint", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("gave up after %s, want roughly the 150ms bound", waited)
	}
	// A caller that stops waiting (a fleet shutting down) is not held.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dial(ctx, never.URL, DialOptions{}, time.Minute); err == nil {
		t.Fatal("dial outlived its cancelled context")
	}
}

// TestHubConcurrentPublishSubscribe is the hub's -race exercise:
// publishers, subscribers and cancellations all racing.
func TestHubConcurrentPublishSubscribe(t *testing.T) {
	hub := NewHub()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := hub.Publish(i, hubSample(int(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The publisher runs until every subscriber has been through its
	// rounds; a subscriber always gets a frame, the replayed latest if
	// nothing newer.
	var subs sync.WaitGroup
	for i := 0; i < 8; i++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for n := 0; n < 50; n++ {
				ch, cancel := hub.Subscribe()
				<-ch
				cancel()
			}
		}()
	}
	subs.Wait()
	close(stop)
	wg.Wait()
	hub.Close()
}

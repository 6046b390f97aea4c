package remote

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fullSample builds a sample exercising every wire field: multiple
// rows with shared strings, per-row events, awkward floats, a nil
// Values row and an empty-but-present one.
func fullSample() *Sample {
	return &Sample{
		V:               WireVersion,
		Refresh:         42,
		Source:          "node-7:8119",
		Machine:         "8 CPUs @ 2.5 GHz",
		IntervalSeconds: 2,
		TimeSeconds:     123.456,
		Dropped:         3,
		Columns: []Column{
			{Name: "INSN", Header: "Minstr", Width: 8, Format: "%8.2f"},
			{Name: "IPC", Header: "IPC"},
		},
		Rows: []Row{
			{
				PID: 101, TID: 101, User: "alice", Command: "payload",
				State: "R", CPUPct: 51.25, IPC: 1.3333333333333333,
				Monitored: true, StartSeconds: 17.5,
				Values: []float64{1234.5, 1.3333333333333333},
				Events: map[string]uint64{"INSTRUCTIONS": 9999999, "CYCLES": 7500000},
			},
			{
				PID: 101, TID: 104, User: "alice", Command: "payload",
				State: "S", CPUPct: 51.5, IPC: 1.3333433333333333,
				Monitored: true, StartSeconds: 17.75, Coverage: 0.25,
				Values: []float64{1234.625, math.SmallestNonzeroFloat64},
				Events: map[string]uint64{"INSTRUCTIONS": 1, "CYCLES": 0},
			},
			{
				PID: 2, User: "root", Command: "kthreadd",
				Values: nil, // never counted: JSON carries null
			},
			{
				PID: 99999, TID: 99999, User: "bob", Command: "idle",
				Monitored: true, Values: []float64{},
			},
		},
	}
}

// TestBinaryRoundTripMatchesJSON is the acceptance check: a binary
// round trip must reproduce exactly what the JSON wire's decode
// produces — same float bits, same nil vs empty slices, same maps.
func TestBinaryRoundTripMatchesJSON(t *testing.T) {
	ws := fullSample()

	jdata, err := ws.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	viaJSON, err := Decode(jdata)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	bdata := ws.EncodeBinary()
	viaBin, err := DecodeBinary(bdata)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}

	if !reflect.DeepEqual(viaBin, viaJSON) {
		t.Fatalf("binary round trip diverges from JSON decode:\nbinary: %+v\njson:   %+v", viaBin, viaJSON)
	}
	// The whole point of the format: it should also be smaller.
	if len(bdata) >= len(jdata) {
		t.Errorf("binary frame (%d bytes) not smaller than JSON (%d bytes)", len(bdata), len(jdata))
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	ws := &Sample{V: WireVersion, Refresh: 1, Machine: "m"}
	jdata, _ := ws.Encode()
	viaJSON, err := Decode(jdata)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	viaBin, err := DecodeBinary(ws.EncodeBinary())
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !reflect.DeepEqual(viaBin, viaJSON) {
		t.Fatalf("empty sample diverges:\nbinary: %+v\njson:   %+v", viaBin, viaJSON)
	}
	if viaBin.Rows != nil || viaBin.Columns != nil {
		t.Fatalf("nil slices did not survive: %+v", viaBin)
	}
}

// TestBinaryRejectsNewerVersion mirrors the JSON wire's reject-newer
// rule on the leading version byte.
func TestBinaryRejectsNewerVersion(t *testing.T) {
	data := fullSample().EncodeBinary()
	data[0] = WireVersion + 1
	if _, err := DecodeBinary(data); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("version %d accepted, err = %v", WireVersion+1, err)
	}
	if _, err := DecodeBinary([]byte{0}); err == nil {
		t.Fatal("version 0 accepted")
	}
	if _, err := DecodeBinary(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// TestBinaryTruncation verifies every prefix of a valid frame fails
// loudly rather than yielding a quietly wrong sample.
func TestBinaryTruncation(t *testing.T) {
	data := fullSample().EncodeBinary()
	for n := 1; n < len(data); n++ {
		if _, err := DecodeBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// TestClientNegotiatesBinary is the end-to-end negotiation test: a
// client that does not say otherwise — binary is the default, "binary"
// spells it out — receives the binary stream from a binary-speaking
// server, every sample identical to the JSON wire's decoded form, and
// "json" forces the SSE stream out of the same server. The dial-time
// Poll asks for the same encoding of /api/v1/sample.
func TestClientNegotiatesBinary(t *testing.T) {
	for _, wire := range []string{"", "binary", "json"} {
		srv := NewServer(nil)
		mux := http.NewServeMux()
		srv.Register(mux)
		var (
			mu    sync.Mutex
			asked []WireFormat
		)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/v1/sample" {
				format, _ := WireFormatFor(r)
				mu.Lock()
				asked = append(asked, format)
				mu.Unlock()
			}
			mux.ServeHTTP(w, r)
		}))

		if err := srv.Publish(fullSample()); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		c, err := DialWith(ts.URL, DialOptions{Wire: wire})
		if err != nil {
			t.Fatalf("DialWith: %v", err)
		}
		wantFormat := FormatBinary
		if wire == "json" {
			wantFormat = FormatJSON
		}
		mu.Lock()
		polled := asked
		mu.Unlock()
		if len(polled) != 1 || polled[0] != wantFormat {
			t.Fatalf("wire %q: Poll asked for %v, want one %v", wire, polled, wantFormat)
		}
		if want, err := Decode(srv.hub.Latest().Payload(FormatJSON)); err != nil || !reflect.DeepEqual(c.Latest(), want) {
			t.Fatalf("wire %q: Poll = %+v, want %+v (%v)", wire, c.Latest(), want, err)
		}
		// Next skips refreshes the dial-time Poll already saw, so push a
		// fresh one for the stream to deliver.
		next := fullSample()
		next.TimeSeconds += 2
		if err := srv.Publish(next); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		got, err := c.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		c.mu.Lock()
		binary := c.binary
		c.mu.Unlock()
		if binary != (wire != "json") {
			t.Fatalf("wire %q: stream is binary = %v", wire, binary)
		}
		want, err := Decode(srv.hub.Latest().Payload(FormatJSON))
		if err != nil {
			t.Fatalf("Decode latest JSON: %v", err)
		}
		if got.Refresh != 2 {
			t.Fatalf("refresh = %d, want 2", got.Refresh)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wire %q: stream sample diverges from JSON wire decode:\ngot:  %+v\nwant: %+v", wire, got, want)
		}
		c.Close()
		ts.Close()
		srv.Close()
	}
}

// TestClientFallsBackToSSE: a client dialing with the default wire —
// which asks for binary — against a server that ignores ?wire= (an
// older daemon) keeps working over SSE JSON.
func TestClientFallsBackToSSE(t *testing.T) {
	srv := NewServer(nil)
	defer srv.Close()
	mux := http.NewServeMux()
	// An old server: SSE only, no negotiation, no binary sample body.
	mux.HandleFunc("GET /api/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		old := r.Clone(r.Context())
		old.URL.RawQuery = ""
		old.Header.Del("Accept")
		srv.hub.ServeStream(w, old)
	})
	mux.HandleFunc("GET /api/v1/sample", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(srv.hub.Latest().Payload(FormatJSON))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if err := srv.Publish(fullSample()); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	c, err := DialWith(ts.URL, DialOptions{})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer c.Close()
	next := fullSample()
	if err := srv.Publish(next); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got, err := c.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	c.mu.Lock()
	binary := c.binary
	c.mu.Unlock()
	if binary {
		t.Fatal("client claims binary against an SSE-only server")
	}
	if got.Machine != "8 CPUs @ 2.5 GHz" || got.Refresh != 2 {
		t.Fatalf("fallback sample wrong: %+v", got)
	}
}

// TestStreamRejectsUnknownWire: a bad ?wire= value is a 400 carrying
// the JSON error envelope with a hint.
func TestStreamRejectsUnknownWire(t *testing.T) {
	srv := NewServer(nil)
	defer srv.Close()
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, path := range []string{"/api/v1/stream?wire=carrier-pigeon", "/api/v1/sample?wire=carrier-pigeon"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var e APIError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: bad envelope: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(e.Message, "carrier-pigeon") || !strings.Contains(e.Hint, "wire=binary") {
			t.Fatalf("%s: envelope %+v", path, e)
		}
	}
}

// TestSampleEndpointBinary: ?wire=binary on /api/v1/sample serves the
// binary body with its own ETag.
func TestSampleEndpointBinary(t *testing.T) {
	srv := NewServer(nil)
	defer srv.Close()
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if err := srv.Publish(fullSample()); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/sample?wire=binary")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("Content-Type = %q", ct)
	}
	if etag := resp.Header.Get("ETag"); etag != `"1-b"` {
		t.Fatalf("ETag = %q", etag)
	}
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	ws, err := DecodeBinary(buf[:n])
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if ws.Refresh != 1 {
		t.Fatalf("refresh = %d", ws.Refresh)
	}
}

package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// nastyStrings need every escape encoding/json has: quotes, backslash,
// the HTML trio, short and \u00XX control escapes, DEL, U+2028/9,
// invalid UTF-8 (lone continuation, truncated rune, surrogate half).
var nastyStrings = []string{
	"", "plain", `q"uo\te`, "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f",
	"\x00\x01\x1f\x7f", "line sep par", "café 世界 \U0001F600",
	"\x80", "ab\xc3", "\xed\xa0\x80", "\xff\xfe", "a\xe2\x80", "CYCLES", "INSTRUCTIONS",
}

// awkwardFloats sit on every branch of the JSON float format: both
// zeros, the 'f'/'e' switch points, a one- and a two-digit negative
// exponent, subnormals, the extremes.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-10,
	1e20, 1e21, 9.999999999999999e20, 1.2345e22, -1e21, -1e-7, 1e100, 1e-100,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
	123456789.125, 1.3333333333333333, 100, 99.5,
}

// fuzzSrc turns fuzz bytes into a sample; past the end it reads zeros.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSrc) str() string {
	switch c := s.byte(); c % 4 {
	case 0:
		return ""
	case 1:
		return nastyStrings[int(s.byte())%len(nastyStrings)]
	}
	n := min(int(s.byte())%10, len(s.b))
	raw := string(s.b[:n])
	s.b = s.b[n:]
	return raw
}

func (s *fuzzSrc) float() float64 {
	switch c := s.byte(); c % 4 {
	case 0:
		return 0
	case 1:
		return awkwardFloats[int(s.byte())%len(awkwardFloats)]
	case 2:
		return float64(int8(s.byte())) / 4
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:])) // NaN and ±Inf included
}

func (s *fuzzSrc) int() int { return int(int8(s.byte())) }

// sample builds a wire sample whose every optional field, slice and
// map is, by the bytes' choice, absent, empty or filled.
func (s *fuzzSrc) sample() *Sample {
	ws := &Sample{
		V: 1 + s.int()%2, Refresh: uint64(s.byte()) << (s.byte() % 57), Source: s.str(), Machine: s.str(),
		IntervalSeconds: s.float(), TimeSeconds: s.float(), Dropped: s.int(),
	}
	if n := int(s.byte()) % 4; n > 0 {
		ws.Columns = make([]Column, n-1)
		for i := range ws.Columns {
			ws.Columns[i] = Column{Name: s.str(), Header: s.str(), Width: s.int(), Format: s.str()}
		}
	}
	n := int(s.byte()) % 6
	if n == 0 {
		return ws
	}
	ws.Rows = make([]Row, n-1)
	for i := range ws.Rows {
		r := &ws.Rows[i]
		*r = Row{
			PID: s.int() * 1000, TID: s.int(), User: s.str(), Command: s.str(), State: s.str(),
			CPUPct: s.float(), IPC: s.float(), Monitored: s.byte()&1 != 0,
			StartSeconds: s.float(), Coverage: s.float(),
		}
		if nv := int(s.byte()) % 5; nv > 0 {
			r.Values = make([]float64, nv-1)
			for j := range r.Values {
				r.Values[j] = s.float()
			}
		}
		// Rows draw differing event-name sets from one small pool, plus
		// the odd arbitrary name.
		if ne := int(s.byte()) % 6; ne > 0 {
			r.Events = make(map[string]uint64, ne-1)
			for j := 0; j < ne-1; j++ {
				name := nastyStrings[len(nastyStrings)-1-int(s.byte())%5]
				if s.byte()%8 == 0 {
					name = s.str()
				}
				r.Events[name] = uint64(s.byte()) << (s.byte() % 57)
			}
		}
	}
	return ws
}

// checkWireIdentity holds the append encoder to encoding/json: the same
// bytes or the same error, through Encode and through a hub frame, and
// a decode that gives the numbers back exactly.
func checkWireIdentity(t testing.TB, ws *Sample) {
	t.Helper()
	want, wantErr := json.Marshal(ws)
	got, err := ws.Encode()
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || wantErr.Error() != err.Error() {
			t.Fatalf("Encode error = %v, json.Marshal error = %v", err, wantErr)
		}
		if perr := NewHub().Publish(1, ws); perr == nil || perr.Error() != wantErr.Error() {
			t.Fatalf("Publish error = %v, want %v", perr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("append encoder differs from json.Marshal\n got  %s\n want %s", got, want)
	}
	hub := NewHub()
	if err := hub.Publish(9, ws); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	f := hub.Latest()
	if !bytes.Equal(f.Payload(FormatJSON), want) {
		t.Fatalf("frame payload differs from json.Marshal\n got  %s\n want %s", f.Payload(FormatJSON), want)
	}
	if sse := fmt.Sprintf("id: 9\nevent: sample\ndata: %s\n\n", want); string(f.Stream(FormatJSON)) != sse {
		t.Fatalf("SSE frame = %q, want %q", f.Stream(FormatJSON), sse)
	}
	bin := ws.EncodeBinary()
	if stream := f.Stream(FormatBinary); !bytes.Equal(stream[4:], bin) || !bytes.Equal(f.Payload(FormatBinary), bin) ||
		binary.LittleEndian.Uint32(stream) != uint32(len(bin)) {
		t.Fatalf("binary frame is not length + EncodeBinary()")
	}

	if ws.V < 1 || ws.V > WireVersion {
		if _, err := Decode(got); err == nil {
			t.Fatalf("wire version %d accepted", ws.V)
		}
		return
	}
	back, err := Decode(got)
	if err != nil {
		t.Fatalf("Decode of own encoding: %v\n%s", err, got)
	}
	if len(back.Rows) != len(ws.Rows) || back.Refresh != ws.Refresh || back.TimeSeconds != ws.TimeSeconds {
		t.Fatalf("round trip lost the sample: %+v", back)
	}
	for i := range ws.Rows {
		in, out := &ws.Rows[i], &back.Rows[i]
		if in.PID != out.PID || in.TID != out.TID || in.CPUPct != out.CPUPct || in.IPC != out.IPC ||
			in.StartSeconds != out.StartSeconds || in.Coverage != out.Coverage || in.Monitored != out.Monitored ||
			(in.Values == nil) != (out.Values == nil) || (len(in.Events) == 0) != (len(out.Events) == 0) {
			t.Fatalf("row %d round trip: in %+v out %+v", i, in, out)
		}
		for j, v := range in.Values {
			if out.Values[j] != v {
				t.Fatalf("row %d value %d: %v came back as %v", i, j, v, out.Values[j])
			}
		}
	}
	viaBin, err := DecodeBinary(bin)
	if err != nil {
		t.Fatalf("DecodeBinary of own encoding: %v", err)
	}
	again, err := viaBin.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Binary keeps invalid UTF-8 and -0 that JSON normalises, so compare
	// after one more JSON pass on both sides.
	a, _ := Decode(again)
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("binary and JSON round trips disagree:\nbinary %+v\njson   %+v", a, back)
	}
}

// edgeSamples are the cases the identity must hold on whatever the
// fuzzer finds: run on every go test.
func edgeSamples() []*Sample {
	all := &Sample{V: 1, Refresh: math.MaxUint64, Columns: []Column{}, Rows: []Row{{Values: awkwardFloats}}}
	for i, s := range nastyStrings {
		all.Columns = append(all.Columns, Column{Name: s, Header: s + s, Width: i % 3, Format: s})
		all.Rows = append(all.Rows, Row{
			PID: -i, TID: i % 2, User: s, Command: s, State: s,
			Values: []float64{}, Events: map[string]uint64{s: uint64(i), "X" + s: math.MaxUint64},
		})
	}
	for _, f := range awkwardFloats {
		all.Rows = append(all.Rows, Row{CPUPct: f, IPC: -f, StartSeconds: f, Coverage: f, Events: map[string]uint64{}})
	}
	nan := fullSample()
	nan.Rows[1].Values[1] = math.NaN()
	inf := fullSample()
	inf.Rows[3].StartSeconds = math.Inf(-1)
	return []*Sample{
		{}, {V: 1, Columns: []Column{}, Rows: []Row{}}, {V: 1, Rows: []Row{{}}},
		fullSample(), testSample(3, 4.5), all, nan, inf,
		{V: 1, IntervalSeconds: math.Inf(1)},
	}
}

// sampleSeeds are fuzzSrc inputs of mixed length, fixed across runs.
func sampleSeeds() [][]byte {
	rng := rand.New(rand.NewSource(13))
	seeds := make([][]byte, 16)
	for i := range seeds {
		seeds[i] = make([]byte, 64<<(i%4))
		rng.Read(seeds[i])
	}
	return seeds
}

// FuzzWireJSONIdentity: for any sample, the hand-written JSON encoder
// and encoding/json agree byte for byte (or error for error).
func FuzzWireJSONIdentity(f *testing.F) {
	for _, ws := range edgeSamples() {
		checkWireIdentity(f, ws)
	}
	f.Add([]byte{})
	for _, seed := range sampleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireIdentity(t, (&fuzzSrc{b: data}).sample())
	})
}

// FuzzDecodeBinary: the binary decoder reads untrusted bytes off the
// network; whatever they are it must return, without panicking and
// without allocating far beyond its input, and what it accepts must
// re-encode.
func FuzzDecodeBinary(f *testing.F) {
	for _, ws := range edgeSamples()[:6] {
		f.Add(ws.EncodeBinary())
	}
	f.Add([]byte{1})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A huge row count in a tiny payload.
	f.Add(append(binaryPrefix(), 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := DecodeBinary(data)
		if err != nil {
			return
		}
		// Every element costs input bytes, so an accepted sample cannot
		// be much larger than what described it.
		if n := minRowBytes*len(ws.Rows) + minColumnBytes*len(ws.Columns); n > len(data) {
			t.Fatalf("%d rows and %d columns decoded from %d bytes", len(ws.Rows), len(ws.Columns), len(data))
		}
		if _, err := DecodeBinary(ws.EncodeBinary()); err != nil {
			t.Fatalf("accepted sample does not survive a re-encode: %v", err)
		}
	})
}

// FuzzDecodeWire: the JSON frame — the /api/v1/sample body and the SSE
// stream, which a client reads under -wire json — is untrusted bytes
// too. Whatever they are, Decode and the SSE reader return without
// panicking; nothing newer than WireVersion is accepted; an accepted
// sample re-encodes, and to a fixpoint (decode → encode is idempotent
// after one pass); and a payload the hub could frame as an SSE event
// reads back byte for byte.
func FuzzDecodeWire(f *testing.F) {
	add := func(ws *Sample) {
		if b, err := ws.Encode(); err == nil {
			f.Add(b)
			f.Add([]byte(fmt.Sprintf("id: 7\nevent: sample\ndata: %s\n\n", b)))
		}
	}
	for _, ws := range edgeSamples() {
		add(ws)
	}
	for _, seed := range sampleSeeds() { // FuzzWireJSONIdentity's corpus, encoded
		add((&fuzzSrc{b: seed}).sample())
	}
	f.Add([]byte(`{"v":2,"refresh":1}`))
	f.Add([]byte(`{"v":1,"rows":[{"events":{}}]}`))
	f.Add([]byte(": keep-alive\n\nevent: status\ndata: {}\n\ndata: {\"v\":1,\ndata: \"refresh\":3}\r\n\r\n"))
	decode := func(t *testing.T, data []byte) {
		ws, err := Decode(data)
		if err != nil {
			return
		}
		if ws.V < 1 || ws.V > WireVersion {
			t.Fatalf("wire version %d accepted", ws.V)
		}
		once, err := ws.Encode()
		if err != nil {
			t.Fatalf("accepted sample does not re-encode: %v", err)
		}
		back, err := Decode(once)
		if err != nil {
			t.Fatalf("re-encoded sample does not decode: %v\n%s", err, once)
		}
		if twice, err := back.Encode(); err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("decode → encode is not a fixpoint (%v)\n once  %s\n twice %s", err, once, twice)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode(t, data)
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := readSSEData(br)
			if err != nil {
				break
			}
			if len(payload) == 0 {
				t.Fatal("SSE reader returned an empty event")
			}
			decode(t, payload)
		}
		if len(data) == 0 || bytes.IndexByte(data, '\n') >= 0 || data[len(data)-1] == '\r' {
			return // not a payload one data: line can carry
		}
		framed := fmt.Sprintf("id: 1\nevent: sample\ndata: %s\n\n", data)
		if got, err := readSSEData(bufio.NewReader(strings.NewReader(framed))); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("framed payload %q read back as %q (%v)", data, got, err)
		}
	})
}

// TestDecodeBinaryBoundsAllocation: a header claiming as many rows as
// the payload has bytes is refused before the rows are allocated.
func TestDecodeBinaryBoundsAllocation(t *testing.T) {
	const padding = 1 << 20
	data := binary.AppendUvarint(binaryPrefix(), padding+1)
	data = append(data, make([]byte, padding)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a row count the payload cannot hold was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > padding {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes", len(data), got)
	}
}

// binaryPrefix is a valid binary payload up to (not including) the
// rows header.
func binaryPrefix() []byte {
	b := (&Sample{V: 1, Machine: "m"}).EncodeBinary()
	return b[:len(b)-1]
}

// bigSample is a 2000-task refresh shaped like the daemon's.
func bigSample(rows int) *Sample {
	ws := &Sample{
		V: WireVersion, Machine: "16 CPUs", IntervalSeconds: 1, TimeSeconds: 12,
		Columns: []Column{{Name: "mcyc", Header: "Mcycle", Width: 8, Format: "%8.2f"}, {Name: "ipc", Header: "IPC"},
			{Name: "miss", Header: "%MISS"}, {Name: "bmis", Header: "%BMIS"}, {Name: "bus", Header: "%BUS"}},
	}
	for i := 0; i < rows; i++ {
		f := float64(i)
		ws.Rows = append(ws.Rows, Row{
			PID: 1000 + i, TID: 1000 + i, User: fmt.Sprintf("user%d", i%7), Command: fmt.Sprintf("job-%d", i%40),
			State: "R", CPUPct: 12.5 + f/100, IPC: 1 + f/3000, Monitored: true, StartSeconds: f / 8,
			Values: []float64{f * 1.25, 1 + f/3000, f / 7, 0.5, 0},
			Events: map[string]uint64{"CYCLES": uint64(2e9 + i), "INSTRUCTIONS": uint64(3e9 + i), "CACHE_MISSES": uint64(i)},
		})
	}
	return ws
}

// TestPublishAllocsFlat: publishing encodes nothing, so what it
// allocates does not depend on the refresh's size; and one JSON encode
// of a 2000-task refresh stays within 100 allocations (18,052 through
// encoding/json).
func TestPublishAllocsFlat(t *testing.T) {
	publish := func(rows int) float64 {
		srv := NewServer(nil)
		defer srv.Close()
		ws := bigSample(rows)
		return testing.AllocsPerRun(20, func() {
			if err := srv.Publish(ws); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := publish(10), publish(2000)
	if small != large || large > 4 {
		t.Fatalf("Publish allocates %.0f for 10 rows and %.0f for 2000, want equal and <= 4", small, large)
	}

	ws := bigSample(2000)
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := ws.Encode(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 100 {
		t.Fatalf("one JSON encode of 2000 tasks = %.0f allocs, want <= 100", allocs)
	}
}

// sseFrame is one 2000-task refresh as the hub streams it over SSE.
func sseFrame(t testing.TB) []byte {
	payload, err := bigSample(2000).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("id: 1\nevent: sample\ndata: %s\n\n", payload))
}

// sseReader returns a function that reads frame off an SSE stream and
// decodes it, as Client.Next does.
func sseReader(frame []byte) func() error {
	r := bytes.NewReader(frame)
	br := bufio.NewReader(r)
	return func() error {
		r.Reset(frame)
		br.Reset(r)
		data, err := readSSEData(br)
		if err == nil {
			_, err = Decode(data)
		}
		return err
	}
}

// TestDecodeJSONAllocs: a stream client reading a 2000-task refresh —
// SSE framing included — makes at most 9 allocations a row: its values,
// user, command, event map and event names (encoding/json made 15).
func TestDecodeJSONAllocs(t *testing.T) {
	next := sseReader(sseFrame(t))
	read := func() {
		if err := next(); err != nil {
			t.Fatal(err)
		}
	}
	if perRow := testing.AllocsPerRun(5, read) / 2000; perRow > 9 {
		t.Fatalf("a stream decode makes %.2f allocations a row, want <= 9", perRow)
	}
}

// BenchmarkDecodeJSON2000 and BenchmarkDecodeBinary2000: a stream client
// reading one 2000-task refresh in each wire encoding.
func BenchmarkDecodeJSON2000(b *testing.B) {
	frame := sseFrame(b)
	next := sseReader(frame)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for b.Loop() {
		if err := next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary2000(b *testing.B) {
	payload := bigSample(2000).EncodeBinary()
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	r := bytes.NewReader(frame)
	br := bufio.NewReader(r)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for b.Loop() {
		r.Reset(frame)
		br.Reset(r)
		data, err := readBinaryFrame(br)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// newlineFree is n bytes without a newline.
func newlineFree(n int64) io.Reader { return io.LimitReader(xs{}, n) }

type xs struct{}

func (xs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestSSEEventBounded: a stream whose line does not end is refused
// once the event passes maxSampleBytes, having allocated no more than
// about twice that.
func TestSSEEventBounded(t *testing.T) {
	br := bufio.NewReader(io.MultiReader(strings.NewReader("event: sample\ndata: "), newlineFree(maxSampleBytes+1<<20)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readSSEData(br)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "64 MiB") {
		t.Fatalf("a newline-free stream read as %v, want the 64 MiB bound", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxSampleBytes+1<<20 {
		t.Fatalf("refusing the stream allocated %d bytes, want about twice the %d bound", got, maxSampleBytes)
	}
}

// TestOncePerRefresh is the demand-driven contract under -race: JSON
// and binary stream subscribers and /api/v1/sample pollers all reading
// while refreshes are published cost exactly one encode per format per
// refresh — and a format nobody reads, none.
func TestOncePerRefresh(t *testing.T) {
	const (
		jsonSubs, binSubs, pollers = 4, 3, 3
		refreshes                  = 40
	)
	srv := NewServer(nil)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer srv.Close()
	hub := srv.Hub()

	// Phase 1: nobody connected. Nothing may be encoded.
	for i := 0; i < 5; i++ {
		if err := srv.Publish(testSample(0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if j, b := hub.encodes[FormatJSON].Load(), hub.encodes[FormatBinary].Load(); j != 0 || b != 0 {
		t.Fatalf("encodes with no consumer: json=%d binary=%d, want 0 0", j, b)
	}

	// Phase 2: JSON readers only — streams and pollers. Each stream
	// first gets the replayed latest frame (refresh 5), then everything
	// published, lock-stepped so that every refresh has a consumer.
	type stream struct {
		c    *Client
		seen chan uint64
	}
	var wg sync.WaitGroup
	open := func(wire string) stream {
		c, err := DialWith(ts.URL, DialOptions{Wire: wire})
		if err != nil {
			t.Fatal(err)
		}
		st := stream{c: c, seen: make(chan uint64, 1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(st.seen)
			for {
				ws, err := c.Next()
				if err != nil {
					return
				}
				st.seen <- ws.Refresh
			}
		}()
		return st
	}
	var streams []stream
	for i := 0; i < jsonSubs; i++ {
		streams = append(streams, open("json"))
	}
	stopPolls := make(chan struct{})
	poll := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stopPolls:
				return
			default:
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go poll("/api/v1/sample")
	}
	waitSubs := func(n int) {
		t.Helper()
		waitFor(t, "stream subscribers", func() bool { return hub.Subscribers() == n })
	}
	waitSubs(jsonSubs)
	publishAndWait := func() uint64 {
		t.Helper()
		if err := srv.Publish(testSample(0, 1)); err != nil {
			t.Fatal(err)
		}
		v := srv.Version()
		for i, st := range streams {
			if got := <-st.seen; got != v {
				t.Fatalf("stream %d saw refresh %d, want %d", i, got, v)
			}
		}
		return v
	}
	jsonBefore := hub.encodes[FormatJSON].Load() // the replayed frame, if a reader got to it
	if jsonBefore > 1 {
		t.Fatalf("the replayed frame was encoded %d times", jsonBefore)
	}
	for i := 0; i < refreshes; i++ {
		publishAndWait()
	}
	if j, b := hub.encodes[FormatJSON].Load()-jsonBefore, hub.encodes[FormatBinary].Load(); j != refreshes || b != 0 {
		t.Fatalf("json-only phase: %d json and %d binary encodes over %d refreshes, want %d and 0", j, b, refreshes, refreshes)
	}

	// Phase 3: binary readers join (stream + poller); a late subscriber
	// is replayed the latest frame, which is encoded for it on demand.
	last := srv.Version()
	for i := 0; i < binSubs; i++ {
		st := open("binary")
		if got := st.c.Latest().Refresh; got != last {
			t.Fatalf("late binary subscriber dialed refresh %d, want latest %d", got, last)
		}
		streams = append(streams, st)
	}
	wg.Add(1)
	go poll("/api/v1/sample?wire=binary")
	waitSubs(jsonSubs + binSubs)
	waitFor(t, "the replayed frame's binary encode", func() bool { return hub.encodes[FormatBinary].Load() > 0 })
	jsonBefore = hub.encodes[FormatJSON].Load()
	for i := 0; i < refreshes; i++ {
		publishAndWait()
	}
	// The replayed frame counts once for all its late readers.
	if j, b := hub.encodes[FormatJSON].Load()-jsonBefore, hub.encodes[FormatBinary].Load(); j != refreshes || b != 1+refreshes {
		t.Fatalf("mixed phase: %d json and %d binary encodes over %d refreshes, want %d and %d", j, b, refreshes, refreshes, 1+refreshes)
	}

	close(stopPolls)
	for _, st := range streams {
		st.c.Close()
	}
	wg.Wait()
}

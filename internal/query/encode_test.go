package query

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tiptop/internal/export"
)

// nastyStrings need every escape encoding/json has: quotes, backslash,
// the HTML trio, short and \u00XX control escapes, DEL, U+2028/9,
// invalid UTF-8 (lone continuation, truncated rune, surrogate half).
var nastyStrings = []string{
	"", "plain", `q"uo\te`, "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f",
	"\x00\x01\x1f\x7f", "line sep par", "café 世界 \U0001F600",
	"\x80", "ab\xc3", "\xed\xa0\x80", "\xff\xfe", "a\xe2\x80", "total", "pid:100",
}

// awkwardFloats sit on every branch of the JSON float format: both
// zeros, the 'f'/'e' switch points, a one- and a two-digit negative
// exponent, subnormals, the extremes, the longest renderings.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-10,
	1e20, 1e21, 9.999999999999999e20, 1.2345e22, -1e21, -1e-7, 1e100, 1e-100,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
	123456789.125, 1.3333333333333333, 100, 99.5, 60, 3600,
	-1.2345678901234567e-6, -123456789012345678901, -1.2345678901234567e-308,
}

// fuzzSrc turns fuzz bytes into results; past the end it reads zeros.
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

func (s *fuzzSrc) int() int { return int(int8(s.byte())) * 1000 }

// count draws a list length: -1 for a nil list, else 0..max-1.
func (s *fuzzSrc) count(max int) int { return int(s.byte())%(max+1) - 1 }

func (s *fuzzSrc) floats() []float64 {
	n := s.count(4)
	if n < 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = s.float()
	}
	return fs
}

// result builds an expression result whose every optional field and
// list is, by the bytes' choice, absent, empty or filled.
func (s *fuzzSrc) result() *Result {
	res := &Result{Expr: s.str(), GroupBy: s.str(), K: s.int(), ResolutionSeconds: s.float(), StepSeconds: s.float()}
	if n := s.count(5); n >= 0 {
		res.Series = make([]Series, n)
	}
	for i := range res.Series {
		sr := &res.Series[i]
		*sr = Series{
			Key: s.str(), PID: s.int(), TID: s.int(), User: s.str(), Command: s.str(), Agent: s.str(),
			Total: s.byte()&1 != 0, Mean: s.float(),
		}
		if n := s.count(4); n >= 0 {
			sr.Points = make([]Point, n)
		}
		for j := range sr.Points {
			sr.Points[j] = Point{TimeSeconds: s.float(), Value: s.float()}
		}
	}
	return res
}

func (s *fuzzSrc) points() []RawPoint {
	n := s.count(4)
	if n < 0 {
		return nil
	}
	pts := make([]RawPoint, n)
	for i := range pts {
		pts[i] = RawPoint{TimeSeconds: s.float(), CPUPct: s.float(), IPC: s.float(), Values: s.floats()}
	}
	return pts
}

// raw is result for the raw range result.
func (s *fuzzSrc) raw() *RawResult {
	res := &RawResult{PID: s.int(), ResolutionSeconds: s.float(), StepSeconds: s.float()}
	if n := s.count(4); n >= 0 {
		res.Columns = make([]string, n)
	}
	for i := range res.Columns {
		res.Columns[i] = s.str()
	}
	res.Machine = s.points()
	if n := s.count(4); n >= 0 {
		res.Series = make([]RawSeries, n)
	}
	for i := range res.Series {
		res.Series[i] = RawSeries{PID: s.int(), TID: s.int(), User: s.str(), Command: s.str(), Points: s.points()}
	}
	return res
}

// checkIdentity holds a response's append encoders to what the handler
// wrote before them: json.Encoder with SetIndent("", "  ") over v, the
// plain struct behind res, and want's fmt-built exposition. A value
// encoding/json refuses must fail checkFinite, and only such a value; an
// encodable one must fit sizeHint.
func checkIdentity(t testing.TB, res response, v any, refOM func(io.Writer) error) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	wantErr, err := enc.Encode(v), res.checkFinite()
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("checkFinite = %v, json.Encoder = %v\n%+v", err, wantErr, v)
	}
	if err == nil {
		got := res.AppendJSON(nil)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSON differs from json.Encoder\n got  %s\n want %s", got, want.Bytes())
		}
		if hint := res.sizeHint(); len(got) > hint {
			t.Fatalf("sizeHint %d is below the %d bytes encoded\n%s", hint, len(got), got)
		}
	}
	want.Reset()
	if err := refOM(&want); err != nil {
		t.Fatal(err)
	}
	if got := res.appendOpenMetrics(nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendOpenMetrics differs from the fmt-built exposition\n got  %s\n want %s", got, want.Bytes())
	}
}

func checkBoth(t testing.TB, res *Result, raw *RawResult) {
	t.Helper()
	checkIdentity(t, res, res, func(w io.Writer) error { return refWriteOpenMetrics(w, res) })
	checkIdentity(t, raw, raw, func(w io.Writer) error { return refWriteRawOpenMetrics(w, raw) })
}

// edgeResults are the cases the identity must hold on whatever the
// fuzzer finds: run on every go test.
func edgeResults() ([]*Result, []*RawResult) {
	all := &Result{Expr: "a\nb", GroupBy: "user", K: 3, StepSeconds: math.Copysign(0, -1), Series: []Series{{Points: []Point{}}}}
	rawAll := &RawResult{PID: -1, StepSeconds: 60, Columns: nastyStrings, Machine: []RawPoint{{Values: awkwardFloats}}}
	for i, s := range nastyStrings {
		sr := Series{Key: s, PID: i % 3, TID: -i % 2, User: s, Command: s + s, Agent: s, Total: i%2 == 0}
		for _, f := range awkwardFloats {
			sr.Mean = -f
			sr.Points = append(sr.Points, Point{TimeSeconds: f, Value: -f})
		}
		all.Series = append(all.Series, sr)
		rawAll.Series = append(rawAll.Series, RawSeries{PID: -i, TID: i % 2, User: s, Command: s, Points: []RawPoint{
			{TimeSeconds: awkwardFloats[i%len(awkwardFloats)], Values: []float64{}}, {CPUPct: 1, IPC: -2.5, Values: awkwardFloats[:i]},
		}})
	}
	nan := &Result{Expr: "x", Series: []Series{{Key: "total", Points: []Point{{Value: math.NaN()}}}}}
	inf := &Result{Expr: "x", Series: []Series{{Key: "pid:1", Mean: math.Inf(1)}}}
	return []*Result{
			{}, {Series: []Series{}}, {Expr: "x", Series: []Series{{}}}, all, nan, inf, {ResolutionSeconds: math.Inf(-1)},
		}, []*RawResult{
			{}, {Series: []RawSeries{}, Columns: []string{}, Machine: []RawPoint{}}, {Series: []RawSeries{{}}}, rawAll,
			{Machine: []RawPoint{{IPC: math.NaN()}}}, {Series: []RawSeries{{Points: []RawPoint{{Values: []float64{math.Inf(1)}}}}}},
			{StepSeconds: math.NaN()},
		}
}

// FuzzQueryJSONIdentity: for any result of either type, the append
// encoders and what they replaced — encoding/json's indented encoder,
// the fmt-built expositions — agree byte for byte, and on which results
// JSON cannot carry.
func FuzzQueryJSONIdentity(f *testing.F) {
	results, raws := edgeResults()
	for i := range results {
		checkBoth(f, results[i], raws[i])
	}
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64<<(i%4))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSrc{b: data}
		checkBoth(t, s.result(), s.raw())
	})
}

// bigResults are a dashboard-sized answer of each type.
func bigResults() (*Result, *RawResult) {
	res := &Result{Expr: "(delta(INSTRUCTIONS) / delta(CYCLES))", ResolutionSeconds: 60, StepSeconds: 60}
	raw := &RawResult{PID: -1, ResolutionSeconds: 60, StepSeconds: 60, Columns: []string{"ipc", "miss"}}
	for i := 0; i < 40; i++ {
		sr := Series{Key: "pid:" + strconv.Itoa(100+i), PID: 100 + i, TID: 100 + i, User: "user<" + strconv.Itoa(i%3) + ">", Command: "job"}
		rs := RawSeries{PID: 100 + i, TID: 100 + i, User: sr.User, Command: "job"}
		for j := 0; j < 300; j++ {
			f := awkwardFloats[(i+j)%len(awkwardFloats)]
			sr.Points = append(sr.Points, Point{TimeSeconds: float64(60 * j), Value: f})
			rs.Points = append(rs.Points, RawPoint{TimeSeconds: float64(60 * j), CPUPct: f, IPC: -f, Values: []float64{f, 1 / 3.0}})
		}
		res.Series = append(res.Series, sr)
		raw.Series = append(raw.Series, rs)
		raw.Machine = rs.Points
	}
	return res, raw
}

// TestResultAppendJSONAllocs: encoding a response into a buffer of
// sizeHint capacity allocates nothing — the encoder appends and the hint
// is an upper bound, so the handler's one make is the response's only
// allocation.
func TestResultAppendJSONAllocs(t *testing.T) {
	res, raw := bigResults()
	for name, r := range map[string]response{"expr": res, "raw": raw} {
		buf := make([]byte, 0, r.sizeHint())
		var out []byte
		allocs := testing.AllocsPerRun(10, func() { out = r.AppendJSON(buf) })
		if allocs != 0 || &out[0] != &buf[:1][0] {
			t.Errorf("%s: %v allocs encoding %d bytes into a %d-byte buffer, want 0 and no regrowth", name, allocs, len(out), cap(buf))
		}
		if 2*len(out) < cap(buf) {
			t.Errorf("%s: sizeHint %d is more than twice the %d bytes encoded", name, cap(buf), len(out))
		}
	}
}

// The fmt-built expositions the handler wrote before appendOpenMetrics,
// kept as its reference.

func quoteLabel(s string) string {
	return string(append(export.AppendEscapedLabel([]byte{'"'}, s), '"'))
}

func refWriteRawOpenMetrics(w io.Writer, res *RawResult) error {
	bw := bufio.NewWriter(w)
	emit := func(name string, labels string, p *RawPoint, v float64) {
		fmt.Fprintf(bw, "%s{%s} %g %g\n", name, labels, v, p.TimeSeconds)
	}
	resolution := `resolution="` + strconv.FormatFloat(res.ResolutionSeconds, 'g', -1, 64) + `"`
	fmt.Fprintf(bw, "# TYPE tiptop_range_machine_cpu_pct gauge\n")
	fmt.Fprintf(bw, "# TYPE tiptop_range_machine_ipc gauge\n")
	for i := range res.Machine {
		p := &res.Machine[i]
		emit("tiptop_range_machine_cpu_pct", resolution, p, p.CPUPct)
		emit("tiptop_range_machine_ipc", resolution, p, p.IPC)
	}
	fmt.Fprintf(bw, "# TYPE tiptop_range_cpu_pct gauge\n")
	fmt.Fprintf(bw, "# TYPE tiptop_range_ipc gauge\n")
	if len(res.Columns) > 0 {
		fmt.Fprintf(bw, "# TYPE tiptop_range_metric gauge\n")
	}
	for i := range res.Series {
		s := &res.Series[i]
		labels := fmt.Sprintf(`pid="%d",tid="%d",user=%s,command=%s`,
			s.PID, s.TID, quoteLabel(s.User), quoteLabel(s.Command))
		for j := range s.Points {
			p := &s.Points[j]
			emit("tiptop_range_cpu_pct", labels, p, p.CPUPct)
			emit("tiptop_range_ipc", labels, p, p.IPC)
			for k, v := range p.Values {
				if k >= len(res.Columns) {
					break
				}
				emit("tiptop_range_metric", labels+`,column=`+quoteLabel(res.Columns[k]), p, v)
			}
		}
	}
	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

// WriteOpenMetrics renders an expression query result as OpenMetrics
// 1.0 text, one sample per evaluated point. The totality rule
// guarantees every value is finite, so the exposition never carries
// NaN. Ordering is deterministic (the engine sorts series; points are
// time-ordered).
func refWriteOpenMetrics(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# TYPE tiptop_query gauge\n")
	fmt.Fprintf(bw, "# HELP tiptop_query %s\n", strings.ReplaceAll(res.Expr, "\n", " "))
	for i := range res.Series {
		s := &res.Series[i]
		labels := `expr=` + quoteLabel(res.Expr) + `,key=` + quoteLabel(s.Key)
		if s.Agent != "" {
			labels += `,agent=` + quoteLabel(s.Agent)
		}
		if s.PID != 0 {
			labels += fmt.Sprintf(`,pid="%d"`, s.PID)
		}
		if s.User != "" {
			labels += `,user=` + quoteLabel(s.User)
		}
		if s.Command != "" {
			labels += `,command=` + quoteLabel(s.Command)
		}
		for j := range s.Points {
			p := &s.Points[j]
			fmt.Fprintf(bw, "tiptop_query{%s} %g %g\n", labels, p.Value, p.TimeSeconds)
		}
	}
	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

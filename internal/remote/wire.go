// Package remote makes a tiptop monitor network-attachable: a versioned
// JSON wire format for samples, an SSE fan-out hub and per-refresh
// encode caches for the serving side, a Client that consumes a remote
// tiptopd's refreshes, and the Agent stream loop an aggregating daemon
// follows each joined tiptopd with.
//
// The design goal is fleet-scale cost: every encoding of a refresh —
// the JSON/SSE frame, the binary frame, the /metrics body — is built at
// most once per refresh per format, on first demand, never on the
// sampling goroutine: the first stream subscriber, /api/v1/sample
// request or scrape that wants a format encodes it on its own
// goroutine and everybody after shares the bytes (Frame for the wire
// formats, EncodeCache keyed by the refresh version for /metrics, both
// behind ETags), and a format nobody reads is never encoded. Publishing
// therefore retains the sample it is given: a caller must not modify a
// sample after Server.Publish.
package remote

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

// WireVersion is the protocol version stamped into every sample. A
// decoder accepts documents up to its own version and rejects newer
// ones, so a stale client fails loudly instead of misreading frames.
const WireVersion = 1

// Column describes one metric column of the serving monitor's screen,
// including the display attributes (width, printf format) a remote
// renderer needs to reproduce the local output byte-for-byte.
type Column struct {
	Name   string `json:"name"`
	Header string `json:"header"`
	Width  int    `json:"width,omitempty"`
	Format string `json:"format,omitempty"`
}

// Row is one monitored task on the wire.
type Row struct {
	PID          int     `json:"pid"`
	TID          int     `json:"tid,omitempty"`
	User         string  `json:"user"`
	Command      string  `json:"command"`
	State        string  `json:"state,omitempty"`
	CPUPct       float64 `json:"cpu_pct"`
	IPC          float64 `json:"ipc"`
	Monitored    bool    `json:"monitored"`
	StartSeconds float64 `json:"start_s,omitempty"`
	// Coverage is the counted fraction of the interval (1 = exact,
	// lower = multiplexed extrapolation). Omitted when exact, so
	// version-1 decoders keep working unchanged.
	Coverage float64           `json:"coverage,omitempty"`
	Values   []float64         `json:"values"`
	Events   map[string]uint64 `json:"events,omitempty"`
}

// Sample is one refresh of a monitor on the wire.
type Sample struct {
	// V is the wire version (WireVersion when produced by this code).
	V int `json:"v"`
	// Refresh is the serving daemon's monotonic refresh counter; stream
	// consumers use it to deduplicate the replayed latest frame.
	Refresh uint64 `json:"refresh"`
	// Source labels the originating agent in fleet streams ("" when the
	// sample comes straight from the agent itself).
	Source          string   `json:"source,omitempty"`
	Machine         string   `json:"machine"`
	IntervalSeconds float64  `json:"interval_s"`
	TimeSeconds     float64  `json:"time_s"`
	Dropped         int      `json:"dropped,omitempty"`
	Columns         []Column `json:"columns"`
	Rows            []Row    `json:"rows"`
}

// Encode serializes the sample (compact, newline-free — safe to embed
// in an SSE data field). The bytes are exactly what encoding/json
// produces for the struct tags above, and so is the error for a
// non-finite float.
func (s *Sample) Encode() ([]byte, error) {
	if err := s.checkFinite(); err != nil {
		return nil, err
	}
	return s.appendJSON(make([]byte, 0, s.sizeHint())), nil
}

// sizeHint over-estimates the JSON encoding's length from the first
// row's shape, so that an encode does not regrow its buffer.
func (s *Sample) sizeHint() int {
	row := 192
	if len(s.Rows) > 0 {
		r := &s.Rows[0]
		row += len(r.User) + len(r.Command) + 24*len(r.Values) + 40*len(r.Events)
	}
	return 256 + 96*len(s.Columns) + row*len(s.Rows)
}

// checkFinite returns encoding/json's error for the first NaN or ±Inf
// in the sample, in field order. Every publisher runs it before a
// sample is retained, which is why the deferred encoders cannot fail.
func (s *Sample) checkFinite() error {
	err := finite(s.IntervalSeconds, s.TimeSeconds)
	for i := 0; err == nil && i < len(s.Rows); i++ {
		r := &s.Rows[i]
		if err = finite(r.CPUPct, r.IPC, r.StartSeconds, r.Coverage); err == nil {
			err = finite(r.Values...)
		}
	}
	return err
}

func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// appendJSON appends the sample's JSON document to b. It mirrors the
// struct tags field for field — order, omitempty, null for nil slices —
// and FuzzWireJSONIdentity holds it to json.Marshal's bytes.
func (s *Sample) appendJSON(b []byte) []byte {
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(s.V), 10)
	b = append(b, `,"refresh":`...)
	b = strconv.AppendUint(b, s.Refresh, 10)
	if s.Source != "" {
		b = AppendJSONString(append(b, `,"source":`...), s.Source)
	}
	b = AppendJSONString(append(b, `,"machine":`...), s.Machine)
	b = AppendJSONFloat(append(b, `,"interval_s":`...), s.IntervalSeconds)
	b = AppendJSONFloat(append(b, `,"time_s":`...), s.TimeSeconds)
	if s.Dropped != 0 {
		b = strconv.AppendInt(append(b, `,"dropped":`...), int64(s.Dropped), 10)
	}

	b = append(b, `,"columns":`...)
	if s.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.Columns {
			c := &s.Columns[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(append(b, `{"name":`...), c.Name)
			b = AppendJSONString(append(b, `,"header":`...), c.Header)
			if c.Width != 0 {
				b = strconv.AppendInt(append(b, `,"width":`...), int64(c.Width), 10)
			}
			if c.Format != "" {
				b = AppendJSONString(append(b, `,"format":`...), c.Format)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}

	b = append(b, `,"rows":`...)
	if s.Rows == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	var events eventOrder
	for i := range s.Rows {
		r := &s.Rows[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"pid":`...), int64(r.PID), 10)
		if r.TID != 0 {
			b = strconv.AppendInt(append(b, `,"tid":`...), int64(r.TID), 10)
		}
		b = AppendJSONString(append(b, `,"user":`...), r.User)
		b = AppendJSONString(append(b, `,"command":`...), r.Command)
		if r.State != "" {
			b = AppendJSONString(append(b, `,"state":`...), r.State)
		}
		b = AppendJSONFloat(append(b, `,"cpu_pct":`...), r.CPUPct)
		b = AppendJSONFloat(append(b, `,"ipc":`...), r.IPC)
		b = strconv.AppendBool(append(b, `,"monitored":`...), r.Monitored)
		if r.StartSeconds != 0 {
			b = AppendJSONFloat(append(b, `,"start_s":`...), r.StartSeconds)
		}
		if r.Coverage != 0 {
			b = AppendJSONFloat(append(b, `,"coverage":`...), r.Coverage)
		}
		b = append(b, `,"values":`...)
		if r.Values == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, v := range r.Values {
				if j > 0 {
					b = append(b, ',')
				}
				b = AppendJSONFloat(b, v)
			}
			b = append(b, ']')
		}
		if len(r.Events) > 0 {
			b = append(b, `,"events":{`...)
			events.load(r.Events)
			for j, name := range events.names {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(AppendJSONString(b, name), ':')
				b = strconv.AppendUint(b, events.vals[j], 10)
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// eventOrder yields a row's events in sorted-name order, which both
// encoders need for deterministic bytes. Rows of one sample nearly
// always share one event set, so the order sorted for one row is kept
// and only revalidated against the next.
type eventOrder struct {
	names []string
	vals  []uint64 // vals[i] is the loaded row's count of names[i]
}

func (o *eventOrder) load(m map[string]uint64) {
	if len(m) == len(o.names) {
		// Same size and every kept name present: the same set.
		same := true
		for i, n := range o.names {
			v, ok := m[n]
			if !ok {
				same = false
				break
			}
			o.vals[i] = v
		}
		if same {
			return
		}
	}
	o.names, o.vals = o.names[:0], o.vals[:0]
	for n := range m {
		o.names = append(o.names, n)
	}
	sort.Strings(o.names)
	for _, n := range o.names {
		o.vals = append(o.vals, m[n])
	}
}

// AppendJSONFloat appends f formatted as encoding/json does: the
// shortest round-tripping digits, exponent form outside [1e-6, 1e21)
// with a one-digit negative exponent unpadded ("e-09" → "e-9"). f must
// be finite. Shared with the query response encoder (internal/query);
// FuzzWireJSONIdentity guards it.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// AppendJSONString appends s quoted as encoding/json does with HTML
// escaping on: \" \\ and the short control escapes, \u00XX for other
// control bytes and < > &, \ufffd per invalid UTF-8 byte, U+2028 and
// U+2029 escaped.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Interval returns the serving monitor's refresh period.
func (s *Sample) Interval() time.Duration {
	return time.Duration(s.IntervalSeconds * float64(time.Second))
}

// Time returns the sample's monitor clock time.
func (s *Sample) Time() time.Duration {
	return time.Duration(s.TimeSeconds * float64(time.Second))
}

// Screen synthesizes a render-only screen from the wire columns: same
// headers, widths and formats as the serving side, no expressions (the
// values were computed remotely).
func (s *Sample) Screen() *metrics.Screen {
	sc := &metrics.Screen{Name: "remote"}
	for _, c := range s.Columns {
		sc.Columns = append(sc.Columns, metrics.NewColumn(c.Name, c.Header, c.Format, c.Width))
	}
	return sc
}

// CoreSample converts the wire sample into the engine's representation,
// which is what recorders (history.Recorder) consume. Events travel by
// canonical name end to end — rows carry the names verbatim, so an
// agent can stream counters (including user-defined raw events) that
// the aggregator's build has never heard of. The name-keyed rows are
// resolved to positional counts here, once; Values alias the wire
// sample's, which observers only read.
func (s *Sample) CoreSample() *core.Sample {
	cs := &core.Sample{Time: s.Time(), Dropped: s.Dropped}
	cs.Rows = make([]core.Row, 0, len(s.Rows))
	for i := range s.Rows {
		r := &s.Rows[i]
		cs.Rows = append(cs.Rows, core.Row{
			Info: core.TaskInfo{
				ID:        hpm.TaskID{PID: r.PID, TID: r.TID},
				User:      r.User,
				Comm:      r.Command,
				State:     r.State,
				StartTime: time.Duration(r.StartSeconds * float64(time.Second)),
			},
			CPUPct:   r.CPUPct,
			Values:   r.Values,
			Coverage: core.ExactCoverage(r.Coverage),
			Valid:    r.Monitored,
		})
	}
	cs.SetEvents(func(i int) map[string]uint64 { return s.Rows[i].Events })
	return cs
}

// ColumnNames returns the wire columns' machine-friendly names.
func (s *Sample) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Headers returns the wire columns' display headings.
func (s *Sample) Headers() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Header
	}
	return out
}

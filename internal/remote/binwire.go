package remote

// The binary wire frame: an opt-in, length-prefixed encoding of Sample
// negotiated per client (?wire=binary, or Accept with the binary media
// type — the parameter wins). The first payload byte is the wire
// version, with the same reject-newer rule as the JSON document's "v"
// field, so a stale client fails loudly on either encoding.
//
// The layout leans on the same primitives as the store's record format
// v2 (internal/binenc): varints, a per-frame string dictionary built
// streamingly (first occurrence inline, repeats by index), and the
// XOR-against-previous float codec — which round-trips every float64
// bit-exactly, so a binary round trip reproduces the JSON wire's
// decoded form field for field. Nil and empty slices are encoded
// distinctly (header 0 = nil, n+1 = n elements) to preserve that
// parity.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"

	"tiptop/internal/binenc"
)

// WireFormat selects a stream encoding for a hub subscriber.
type WireFormat int

const (
	// FormatJSON is the default SSE stream of JSON samples.
	FormatJSON WireFormat = iota
	// FormatBinary is the length-prefixed binary frame stream.
	FormatBinary
)

// ContentTypeBinary is the media type of the binary frame stream; a
// client offers it in Accept (or forces it with ?wire=binary) and
// recognizes the server's agreement by the response Content-Type.
const ContentTypeBinary = "application/vnd.tiptop.sample-binary"

// maxSampleBytes bounds one encoded sample on every read path — a binary
// frame's declared length, an SSE event's data, an /api/v1/sample body —
// so a corrupt or hostile peer cannot make a client allocate without
// bound.
const maxSampleBytes = 64 << 20

// WireFormatFor picks the sample encoding a request asks for: the
// ?wire= parameter wins, the Accept header decides otherwise, and the
// default is JSON (so existing clients see no change).
func WireFormatFor(r *http.Request) (WireFormat, error) {
	switch p := r.URL.Query().Get("wire"); p {
	case "":
	case "json", "sse":
		return FormatJSON, nil
	case "binary", "bin":
		return FormatBinary, nil
	default:
		return FormatJSON, fmt.Errorf("unknown wire format %q", p)
	}
	if strings.Contains(r.Header.Get("Accept"), ContentTypeBinary) {
		return FormatBinary, nil
	}
	return FormatJSON, nil
}

// WantsOpenMetrics reports whether a request negotiates the
// OpenMetrics text exposition via its Accept header. Query endpoints
// consult it only when no ?format= parameter is present — the
// parameter always wins.
func WantsOpenMetrics(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// readBinaryFrame reads one length-prefixed frame from a stream.
func readBinaryFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxSampleBytes {
		return nil, fmt.Errorf("remote: bad binary frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// binEncoder appends binary-sample fields, interning strings into the
// frame's dictionary: a string's first occurrence travels inline after
// a 0 marker, repeats as 1-based dictionary indices.
type binEncoder struct {
	b    []byte
	dict map[string]uint64
}

func (e *binEncoder) str(s string) {
	if i, ok := e.dict[s]; ok {
		e.b = binenc.AppendUvarint(e.b, i+1)
		return
	}
	e.b = binenc.AppendUvarint(e.b, 0)
	e.b = binenc.AppendString(e.b, s)
	e.dict[s] = uint64(len(e.dict))
}

// slice writes a slice header distinguishing nil from empty: 0 for
// nil, n+1 for n elements (JSON marshals them differently — null vs []
// — and the binary decode must land on the same Go value).
func (e *binEncoder) slice(isNil bool, n int) {
	if isNil {
		e.b = binenc.AppendUvarint(e.b, 0)
		return
	}
	e.b = binenc.AppendUvarint(e.b, uint64(n)+1)
}

// EncodeBinary serializes the sample as one binary wire payload
// (version byte first; wrap with the stream framing to put it on a
// connection). DecodeBinary(EncodeBinary(s)) reproduces exactly what
// Decode(s.Encode()) would: same values bit for bit, same nil-ness.
func (s *Sample) EncodeBinary() []byte {
	return s.appendBinary(make([]byte, 0, s.sizeHint()/4))
}

// appendBinary appends the sample's binary payload to b.
func (s *Sample) appendBinary(b []byte) []byte {
	e := &binEncoder{b: b, dict: make(map[string]uint64, 16)}
	e.b = append(e.b, byte(s.V))
	e.b = binenc.AppendUvarint(e.b, s.Refresh)
	e.str(s.Source)
	e.str(s.Machine)
	e.b = binenc.AppendFloat(e.b, 0, s.IntervalSeconds)
	e.b = binenc.AppendFloat(e.b, 0, s.TimeSeconds)
	e.b = binenc.AppendVarint(e.b, int64(s.Dropped))

	e.slice(s.Columns == nil, len(s.Columns))
	for i := range s.Columns {
		c := &s.Columns[i]
		e.str(c.Name)
		e.str(c.Header)
		e.b = binenc.AppendVarint(e.b, int64(c.Width))
		e.str(c.Format)
	}

	e.slice(s.Rows == nil, len(s.Rows))
	var prev Row
	prevPID := 0
	var events eventOrder
	for i := range s.Rows {
		r := &s.Rows[i]
		// PIDs arrive sorted by the screen, TIDs cluster around their
		// PID, and adjacent rows' floats share most bits — deltas and
		// the XOR codec keep all of them short.
		e.b = binenc.AppendVarint(e.b, int64(r.PID-prevPID))
		e.b = binenc.AppendVarint(e.b, int64(r.TID-r.PID))
		e.str(r.User)
		e.str(r.Command)
		e.str(r.State)
		var flags byte
		if r.Monitored {
			flags |= 1
		}
		e.b = append(e.b, flags)
		e.b = binenc.AppendFloat(e.b, prev.CPUPct, r.CPUPct)
		e.b = binenc.AppendFloat(e.b, prev.IPC, r.IPC)
		e.b = binenc.AppendFloat(e.b, prev.StartSeconds, r.StartSeconds)
		e.b = binenc.AppendFloat(e.b, prev.Coverage, r.Coverage)
		e.slice(r.Values == nil, len(r.Values))
		for j, v := range r.Values {
			var p float64
			if j < len(prev.Values) {
				p = prev.Values[j]
			}
			e.b = binenc.AppendFloat(e.b, p, v)
		}
		// Events are a map; a deterministic frame needs a fixed order.
		e.b = binenc.AppendUvarint(e.b, uint64(len(r.Events)))
		events.load(r.Events)
		for j, n := range events.names {
			e.str(n)
			e.b = binenc.AppendUvarint(e.b, events.vals[j])
		}
		prev = *r
		prevPID = r.PID
	}
	return e.b
}

// binDecoder mirrors binEncoder's string interning on the read side.
type binDecoder struct {
	r    *binenc.Reader
	dict []string
	err  error
}

func (d *binDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *binDecoder) str() string {
	i := d.r.Uvarint()
	if i == 0 {
		s := d.r.String()
		d.dict = append(d.dict, s)
		return s
	}
	if i-1 >= uint64(len(d.dict)) {
		d.fail("string index %d beyond dictionary of %d", i, len(d.dict))
		return ""
	}
	return d.dict[i-1]
}

// Fewest bytes one element of each slice can occupy on the wire.
const (
	minColumnBytes = 4  // three strings and a width
	minRowBytes    = 12 // two ids, three strings, flags, four floats, two headers
)

// slice reads a slice header, returning (n, isNil). The count is
// checked against what the remaining bytes could hold at elem bytes an
// element, so a corrupt header cannot make the decoder allocate more
// than a small multiple of its input.
func (d *binDecoder) slice(elem int) (int, bool) {
	h := d.r.Uvarint()
	if h == 0 {
		return 0, true
	}
	n := h - 1
	if n > uint64(d.r.Len()/elem) {
		d.fail("slice of %d elements in %d remaining bytes", n, d.r.Len())
		return 0, false
	}
	return int(n), false
}

// DecodeBinary parses and version-checks a binary wire payload.
func DecodeBinary(data []byte) (*Sample, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("remote: empty binary sample")
	}
	if v := int(data[0]); v < 1 || v > WireVersion {
		return nil, fmt.Errorf("remote: wire version %d not supported (this client speaks <= %d)", v, WireVersion)
	}
	r := binenc.NewReader(data[1:])
	d := &binDecoder{r: r}
	s := &Sample{V: int(data[0])}
	s.Refresh = r.Uvarint()
	s.Source = d.str()
	s.Machine = d.str()
	s.IntervalSeconds = r.Float(0)
	s.TimeSeconds = r.Float(0)
	s.Dropped = int(r.Varint())

	if n, isNil := d.slice(minColumnBytes); !isNil {
		s.Columns = make([]Column, n)
		for i := range s.Columns {
			c := &s.Columns[i]
			c.Name = d.str()
			c.Header = d.str()
			c.Width = int(r.Varint())
			c.Format = d.str()
		}
	}

	if n, isNil := d.slice(minRowBytes); !isNil {
		s.Rows = make([]Row, n)
		var prev Row
		prevPID := 0
		for i := range s.Rows {
			if r.Err() != nil || d.err != nil {
				break
			}
			row := &s.Rows[i]
			row.PID = prevPID + int(r.Varint())
			row.TID = row.PID + int(r.Varint())
			row.User = d.str()
			row.Command = d.str()
			row.State = d.str()
			row.Monitored = r.Byte()&1 != 0
			row.CPUPct = r.Float(prev.CPUPct)
			row.IPC = r.Float(prev.IPC)
			row.StartSeconds = r.Float(prev.StartSeconds)
			row.Coverage = r.Float(prev.Coverage)
			if nv, isNil := d.slice(1); !isNil {
				row.Values = make([]float64, nv)
				for j := range row.Values {
					var p float64
					if j < len(prev.Values) {
						p = prev.Values[j]
					}
					row.Values[j] = r.Float(p)
				}
			}
			if ne := r.Uvarint(); ne > 0 {
				if ne > uint64(r.Len()/2) { // a name and a count each
					d.fail("event map of %d entries in %d remaining bytes", ne, r.Len())
					break
				}
				row.Events = make(map[string]uint64, ne)
				for j := uint64(0); j < ne && r.Err() == nil && d.err == nil; j++ {
					name := d.str()
					row.Events[name] = r.Uvarint()
				}
			}
			prev = *row
			prevPID = row.PID
		}
	}

	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("remote: bad binary sample: %w", err)
	}
	if d.err != nil {
		return nil, fmt.Errorf("remote: bad binary sample: %w", d.err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("remote: %d trailing bytes after binary sample", r.Len())
	}
	return s, nil
}

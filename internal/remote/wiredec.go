package remote

// The one-pass reader of the JSON wire document. Decode reads the exact
// layout Sample.appendJSON writes — keys in its order, optional keys
// present or absent, no whitespace — in one forward pass, parsing
// numbers with the strconv calls encoding/json makes, so every value is
// bit-identical. Any byte the pass does not expect (whitespace,
// reordered, unknown or duplicate keys, null scalars, invalid UTF-8,
// surrogate escapes, a number its field cannot hold) means the document
// was not written here, and the whole of it goes to json.Unmarshal
// instead. Every input therefore decodes, or fails, exactly as
// json.Unmarshal has it; FuzzDecodeJSONIdentity holds the two to that.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// jsonDecoder is the one-pass reader's state for one document.
type jsonDecoder struct {
	b    []byte    // the document being read
	p    int       // read position in b
	vals []float64 // the row being read's values
}

// Decode parses and version-checks a wire sample: in one pass if this
// package wrote it, through encoding/json otherwise.
func Decode(data []byte) (*Sample, error) {
	s, ok := onePass(data)
	if !ok {
		s = new(Sample)
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("remote: bad wire sample: %w", err)
		}
	}
	if s.V < 1 || s.V > WireVersion {
		return nil, fmt.Errorf("remote: wire version %d not supported (this client speaks <= %d)", s.V, WireVersion)
	}
	return s, nil
}

// onePass reads data as appendJSON's document. It returns false, and
// garbage, as soon as data turns out to be anything else.
func onePass(data []byte) (*Sample, bool) {
	d := &jsonDecoder{b: data}
	s := new(Sample)
	ok := d.lit(`{"v":`) && d.int(&s.V) &&
		d.lit(`,"refresh":`) && d.uint(&s.Refresh) &&
		(!d.lit(`,"source":`) || d.str(&s.Source)) &&
		d.lit(`,"machine":`) && d.str(&s.Machine) &&
		d.lit(`,"interval_s":`) && d.float(&s.IntervalSeconds) &&
		d.lit(`,"time_s":`) && d.float(&s.TimeSeconds) &&
		(!d.lit(`,"dropped":`) || d.int(&s.Dropped)) &&
		d.lit(`,"columns":`) && list(d, &s.Columns, d.column) &&
		d.lit(`,"rows":`) && list(d, &s.Rows, d.row) &&
		d.char('}') && d.p == len(d.b)
	return s, ok
}

func (d *jsonDecoder) column(c *Column) bool {
	return d.lit(`{"name":`) && d.str(&c.Name) &&
		d.lit(`,"header":`) && d.str(&c.Header) &&
		(!d.lit(`,"width":`) || d.int(&c.Width)) &&
		(!d.lit(`,"format":`) || d.str(&c.Format)) &&
		d.char('}')
}

func (d *jsonDecoder) row(r *Row) bool {
	return d.lit(`{"pid":`) && d.int(&r.PID) &&
		(!d.lit(`,"tid":`) || d.int(&r.TID)) &&
		d.lit(`,"user":`) && d.str(&r.User) &&
		d.lit(`,"command":`) && d.str(&r.Command) &&
		(!d.lit(`,"state":`) || d.str(&r.State)) &&
		d.lit(`,"cpu_pct":`) && d.float(&r.CPUPct) &&
		d.lit(`,"ipc":`) && d.float(&r.IPC) &&
		d.lit(`,"monitored":`) && d.bool(&r.Monitored) &&
		(!d.lit(`,"start_s":`) || d.float(&r.StartSeconds)) &&
		(!d.lit(`,"coverage":`) || d.float(&r.Coverage)) &&
		d.lit(`,"values":`) && d.valueList(&r.Values) &&
		(!d.lit(`,"events":`) || d.eventMap(&r.Events)) &&
		d.char('}')
}

// lit consumes s if the document continues with it.
func (d *jsonDecoder) lit(s string) bool {
	if len(d.b)-d.p < len(s) || string(d.b[d.p:d.p+len(s)]) != s {
		return false
	}
	d.p += len(s)
	return true
}

// char consumes c if it is the next byte.
func (d *jsonDecoder) char(c byte) bool {
	if d.p < len(d.b) && d.b[d.p] == c {
		d.p++
		return true
	}
	return false
}

// seq reads open, zero or more comma-separated elements through elem,
// and close.
func (d *jsonDecoder) seq(open, close byte, elem func() bool) bool {
	if !d.char(open) {
		return false
	}
	if d.char(close) {
		return true
	}
	for elem() {
		if d.char(close) {
			return true
		}
		if !d.char(',') {
			return false
		}
	}
	return false
}

// list reads `null`, leaving *dst nil, or an array whose elements elem
// reads in place (`[]` is empty, not nil).
func list[T any](d *jsonDecoder, dst *[]T, elem func(*T) bool) bool {
	if d.lit("null") {
		return true
	}
	buf := []T{}
	ok := d.seq('[', ']', func() bool {
		var zero T
		buf = append(buf, zero)
		return elem(&buf[len(buf)-1])
	})
	*dst = buf
	return ok
}

// valueList reads a row's values into scratch, then copies them out, so
// each row owns an array of its own.
func (d *jsonDecoder) valueList(dst *[]float64) bool {
	if d.lit("null") {
		return true
	}
	d.vals = d.vals[:0]
	ok := d.seq('[', ']', func() bool {
		var f float64
		ok := d.float(&f)
		d.vals = append(d.vals, f)
		return ok
	})
	*dst = append([]float64{}, d.vals...)
	return ok
}

// eventMap reads a row's events. Like encoding/json it makes the map
// even for `{}`, and a repeated name keeps its last count.
func (d *jsonDecoder) eventMap(dst *map[string]uint64) bool {
	m := make(map[string]uint64)
	*dst = m
	return d.seq('{', '}', func() bool {
		var name string
		var n uint64
		if !d.str(&name) || !d.char(':') || !d.uint(&n) {
			return false
		}
		m[name] = n
		return true
	})
}

// number consumes a JSON number literal — the grammar encoding/json's
// scanner accepts — and returns it, or nil if there is none.
func (d *jsonDecoder) number() []byte {
	b, i := d.b, d.p
	if i < len(b) && b[i] == '-' {
		i++
	}
	start, ok := i, false
	if i, ok = digits(b, i); !ok || b[start] == '0' && i > start+1 {
		return nil // no integer part, or a leading zero
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			return nil
		}
	}
	lit := b[d.p:i]
	d.p = i
	return lit
}

// digits returns the index of the first non-digit in b at or after i,
// and whether there was a digit before it.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j, j > i
}

// int, uint and float parse a number as encoding/json does for the
// field's type; a literal the type cannot hold is not ours.
func (d *jsonDecoder) int(dst *int) bool {
	n, err := strconv.ParseInt(string(d.number()), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *jsonDecoder) uint(dst *uint64) bool {
	n, err := strconv.ParseUint(string(d.number()), 10, 64)
	*dst = n
	return err == nil
}

func (d *jsonDecoder) float(dst *float64) bool {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	*dst = f
	return err == nil
}

func (d *jsonDecoder) bool(dst *bool) bool {
	*dst = d.lit("true")
	return *dst || d.lit("false")
}

// str reads a string with every escape AppendJSONString writes.
func (d *jsonDecoder) str(dst *string) bool {
	if !d.char('"') {
		return false
	}
	b, i := d.b, d.p
	for i < len(b) && b[i] >= ' ' && b[i] != '"' && b[i] != '\\' && b[i] < utf8.RuneSelf {
		i++
	}
	if i < len(b) && b[i] == '"' {
		*dst = string(b[d.p:i])
		d.p = i + 1
		return true
	}
	esc := append([]byte(nil), b[d.p:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			// Escapes decode to whole runes, so the value is valid UTF-8
			// exactly when the raw bytes were.
			d.p = i + 1
			if !utf8.Valid(esc) {
				return false
			}
			*dst = string(esc)
			return true
		case c < ' ':
			return false
		case c != '\\':
			esc = append(esc, c)
			i++
		default:
			r, n := unescape(b[i:])
			if n == 0 {
				return false
			}
			esc = utf8.AppendRune(esc, r)
			i += n
		}
	}
	return false
}

// unescape decodes the escape sequence b starts with, returning the
// rune and the sequence's length: 0 for a malformed one or a UTF-16
// surrogate, which AppendJSONString never writes.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	if k := strings.IndexByte(`"\/bfnrt`, b[1]); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), 2
	}
	if b[1] != 'u' || len(b) < 6 {
		return 0, 0
	}
	r, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil || utf16.IsSurrogate(rune(r)) {
		return 0, 0
	}
	return rune(r), 6
}

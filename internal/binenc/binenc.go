// Package binenc holds the low-level binary encoding primitives shared
// by the store's columnar record formats (internal/store) and the
// remote binary wire frame (internal/remote): unsigned and zigzag
// varints, length-prefixed strings, and an XOR-against-previous float
// codec that round-trips every float64 bit-exactly.
//
// The float codec is the load-bearing piece. Both consumers must
// reproduce their JSON twins byte-for-byte after a decode (the store's
// compaction golden test diffs Query output pre/post rewrite; the wire
// test diffs a binary round-trip against the JSON decode), so floats
// are never re-quantized: a value is stored as the XOR of its IEEE-754
// bits with the previous value's bits, with a one-byte control word
//
//	control = lo<<4 | n        (n = 1..8 significant bytes, lo = first)
//	control = 0x00             (bits identical to the previous value)
//
// followed by the n non-zero bytes of the XOR, little-endian from byte
// lo. Monitoring series change slowly — successive CPU percentages and
// IPC values share sign, exponent and leading mantissa bits — so the
// XOR is usually short, and an unchanged value costs one byte.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v zigzag-encoded, so small negatives stay small.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat appends v encoded as the XOR of its bits with prev's.
func AppendFloat(b []byte, prev, v float64) []byte {
	x := math.Float64bits(v) ^ math.Float64bits(prev)
	if x == 0 {
		return append(b, 0)
	}
	lo := 0
	for x&0xff == 0 {
		x >>= 8
		lo++
	}
	n := 0
	tail := x
	for tail != 0 {
		tail >>= 8
		n++
	}
	b = append(b, byte(lo<<4|n))
	for i := 0; i < n; i++ {
		b = append(b, byte(x))
		x >>= 8
	}
	return b
}

// Reader decodes a buffer written with the Append functions. The first
// malformed read latches an error; every subsequent read returns zero
// values, so decoders can run a whole frame and check Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, nil while the stream is healthy.
func (r *Reader) Err() error { return r.err }

// Len returns the number of undecoded bytes remaining.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("binenc: truncated or corrupt %s at offset %d", what, r.off)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Float reads a float encoded by AppendFloat against prev.
func (r *Reader) Float(prev float64) float64 {
	ctrl := r.Byte()
	if r.err != nil {
		return 0
	}
	if ctrl == 0 {
		return prev
	}
	lo, n := int(ctrl>>4), int(ctrl&0xf)
	if n == 0 || n > 8 || lo > 7 || r.off+n > len(r.b) {
		r.fail("float")
		return 0
	}
	var x uint64
	for i := n - 1; i >= 0; i-- {
		x = x<<8 | uint64(r.b[r.off+i])
	}
	r.off += n
	return math.Float64frombits(math.Float64bits(prev) ^ x<<(8*lo))
}

// SkipFloat advances past one AppendFloat encoding without
// reconstructing the value. The control byte alone carries the width,
// so a reader can step over a whole XOR chain it does not need — the
// store's projected scan skips unreferenced columns this way. Skipping
// loses the chain's previous-value state, so it is only valid when
// every value of the chain is skipped.
func (r *Reader) SkipFloat() {
	r.SkipFloats(1)
}

// SkipFloats advances past count consecutive AppendFloat encodings —
// a whole chain in one call, without per-value call overhead.
func (r *Reader) SkipFloats(count int) {
	if r.err != nil {
		return
	}
	b, off := r.b, r.off
	for ; count > 0; count-- {
		if off >= len(b) {
			r.off = off
			r.fail("float")
			return
		}
		ctrl := b[off]
		off++
		if ctrl == 0 {
			continue
		}
		lo, n := int(ctrl>>4), int(ctrl&0xf)
		if n == 0 || n > 8 || lo > 7 || off+n > len(b) {
			r.off = off
			r.fail("float")
			return
		}
		off += n
	}
	r.off = off
}

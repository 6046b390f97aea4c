package binenc

import (
	"math"
	"testing"
)

func TestUvarintVarintRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64}
	svals := []int64{0, 1, -1, 63, -64, 1 << 40, math.MinInt64, math.MaxInt64}
	var b []byte
	for _, v := range uvals {
		b = AppendUvarint(b, v)
	}
	for _, v := range svals {
		b = AppendVarint(b, v)
	}
	r := NewReader(b)
	for _, want := range uvals {
		if got := r.Uvarint(); got != want {
			t.Fatalf("uvarint: got %d want %d", got, want)
		}
	}
	for _, want := range svals {
		if got := r.Varint(); got != want {
			t.Fatalf("varint: got %d want %d", got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestStringRoundTrip(t *testing.T) {
	vals := []string{"", "root", "a command with spaces", "\x00\xff\"\\", "日本語"}
	var b []byte
	for _, s := range vals {
		b = AppendString(b, s)
	}
	r := NewReader(b)
	for _, want := range vals {
		if got := r.String(); got != want {
			t.Fatalf("string: got %q want %q", got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFloatRoundTripExact drives the XOR codec through values whose
// bit patterns must survive exactly — including NaN payloads, signed
// zero and subnormals — chained so each value's prev is the one before.
func TestFloatRoundTripExact(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.1, 3.14159, 97.3, 97.30000001, 1e308, -1e-308,
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000001),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, 12345.678,
		12345.678, // repeat: exercises the one-byte unchanged path
	}
	var b []byte
	prev := 0.0
	for _, v := range vals {
		b = AppendFloat(b, prev, v)
		prev = v
	}
	r := NewReader(b)
	prev = 0.0
	for i, want := range vals {
		got := r.Float(prev)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float %d: got %x want %x", i, math.Float64bits(got), math.Float64bits(want))
		}
		prev = got
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestFloatUnchangedIsOneByte(t *testing.T) {
	b := AppendFloat(nil, 97.3, 97.3)
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("unchanged float encoded as %v, want [0]", b)
	}
}

// TestReaderLatchesErrors confirms a truncated buffer fails loudly and
// stays failed instead of yielding garbage on later reads.
func TestReaderLatchesErrors(t *testing.T) {
	b := AppendString(nil, "hello")
	r := NewReader(b[:3]) // length prefix promises more than remains
	if got := r.String(); got != "" {
		t.Fatalf("truncated string decoded to %q", got)
	}
	if r.Err() == nil {
		t.Fatal("no error for truncated string")
	}
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
	r2 := NewReader([]byte{0x18}) // control byte promises 8 bytes, none follow
	r2.Float(0)
	if r2.Err() == nil {
		t.Fatal("no error for truncated float")
	}
}

// TestSkipFloat confirms skipping advances exactly as far as decoding:
// a skipped chain leaves the reader positioned on the data that
// follows, and truncated encodings still fail loudly.
func TestSkipFloat(t *testing.T) {
	vals := []float64{0, 1.5, 1.5, -97.25, 3e300, math.Pi, 0.1}
	var b []byte
	prev := 0.0
	for _, v := range vals {
		b = AppendFloat(b, prev, v)
		prev = v
	}
	b = AppendUvarint(b, 424242)
	r := NewReader(b)
	r.SkipFloats(len(vals))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := r.Uvarint(); got != 424242 {
		t.Fatalf("skip misaligned: trailing uvarint decoded to %d", got)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}

	r2 := NewReader([]byte{0x18}) // control byte promises 8 bytes, none follow
	r2.SkipFloats(1)
	if r2.Err() == nil {
		t.Fatal("no error for truncated skip")
	}
}

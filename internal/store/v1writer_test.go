package store

// The record-format-v1 JSON writer live appends used before they switched
// to binary frames — retired from production, kept here because it is the
// only way to produce v1 input: the mixed-version, golden-ratio,
// old-store and fuzz-seed tests all need segments exactly as an older
// build wrote them.

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unicode/utf8"
)

// appendV1Record renders rec as the v1 JSON payload the retired live
// writer produced, byte for byte: fixed field order, millisecond times,
// shortest round-tripping floats, "tid" omitted when zero, and each row's
// "ipc" as the writer computed it — instr/cycles, 0 without cycles.
func appendV1Record(b []byte, rec *Record) []byte {
	b = append(b, `{"v":1,"time_s":`...)
	b = appendV1Seconds(b, rec.TimeSeconds)
	if rec.ResSeconds > 0 {
		b = append(b, `,"res":`...)
		b = appendV1Seconds(b, rec.ResSeconds)
	}
	if len(rec.Cols) > 0 {
		b = append(b, `,"cols":[`...)
		for i, c := range rec.Cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendV1String(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	for i := range rec.Rows {
		r := &rec.Rows[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"pid":`...)
		b = strconv.AppendInt(b, int64(r.PID), 10)
		if r.TID != 0 {
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(r.TID), 10)
		}
		b = append(b, `,"user":`...)
		b = appendV1String(b, r.User)
		b = append(b, `,"command":`...)
		b = appendV1String(b, r.Command)
		b = append(b, `,"cpu_pct":`...)
		b = appendV1Float(b, r.CPUPct)
		b = append(b, `,"ipc":`...)
		b = appendV1Float(b, ratio(r.Instr, r.Cycles))
		b = append(b, `,"values":[`...)
		for j, v := range r.Values {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendV1Float(b, v)
		}
		b = append(b, `],"instr":`...)
		b = strconv.AppendUint(b, r.Instr, 10)
		b = append(b, `,"cycles":`...)
		b = strconv.AppendUint(b, r.Cycles, 10)
		b = append(b, `,"misses":`...)
		b = strconv.AppendUint(b, r.Misses, 10)
		b = append(b, '}')
	}
	b = append(b, `],"machine":{"tasks":`...)
	b = strconv.AppendInt(b, int64(rec.Machine.Tasks), 10)
	b = append(b, `,"cpu_pct":`...)
	b = appendV1Float(b, rec.Machine.CPUPct)
	b = append(b, `,"instr":`...)
	b = strconv.AppendUint(b, rec.Machine.Instr, 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendUint(b, rec.Machine.Cycles, 10)
	b = append(b, `,"misses":`...)
	b = strconv.AppendUint(b, rec.Machine.Misses, 10)
	return append(b, `}}`...)
}

// appendV1Seconds renders seconds as a decimal with millisecond
// precision.
func appendV1Seconds(b []byte, secs float64) []byte {
	ms := int64(math.Round(secs * 1000))
	b = strconv.AppendInt(b, ms/1000, 10)
	if frac := ms % 1000; frac != 0 {
		b = append(b, '.')
		b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return b
}

// appendV1Float renders a float compactly; NaN and infinities (legal
// float64s, illegal JSON) were stored as 0.
func appendV1Float(b []byte, f float64) []byte {
	if f != f || f > 1e308 || f < -1e308 {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendV1String writes a JSON string literal, escaping the control and
// structural characters (task commands can contain anything).
func appendV1String(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20 && c < utf8.RuneSelf:
			b = append(b, c)
		case c >= utf8.RuneSelf:
			// Multi-byte UTF-8 passes through verbatim.
			b = append(b, c)
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// rewriteSegmentsV1 turns a closed store's live segments (*.seg) into
// what the v1 writer would have left for the same appends: one JSON
// frame per record, no dictionary frames. Compacted segments (*.cseg)
// were binary then too and stay as they are, so fill → Compact → fill →
// Close → rewriteSegmentsV1 reproduces an old build's directory.
func rewriteSegmentsV1(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		err = refForEachRecord(path, fi.Size(), func(rec *Record) error {
			start := len(out)
			out = appendV1Record(beginFrame(out), rec)
			endFrame(out[start:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

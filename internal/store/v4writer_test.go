package store

// The record-format-v4 writer appends and compaction used before v5
// stored every event's count — retired from production, kept here
// because it is the only way to produce v4 input: the version-contract,
// fuzz-seed and hand-built-frame tests need frames exactly as a v4 build
// wrote them. A v4 row stores three counts, INSTRUCTIONS, CYCLES and
// CACHE_MISSES (v4Events), and a downsampled row no refresh count.

import (
	"math"
	"os"
	"slices"
	"testing"

	"tiptop/internal/binenc"
)

// v4Count returns row r's count of the v4 event at position e, looked
// up by name under the events the row's counts are laid out by.
func v4Count(r *RecordRow, events []string, e int) uint64 {
	return at(r.Counts, slices.Index(events, v4Events[e]))
}

// appendV4Data renders rec as the v4 data payload the retired writer
// produced, byte for byte: a header naming rec.Cols when it has any —
// with der's expressions, over v4Events, when der is set — and the
// columns der verifies left out. rec's counts are read by name under
// rec.Events.
func appendV4Data(buf []byte, rec *Record, d *v2Dict, der *derivation) []byte {
	buf = append(buf, recordVersionV4, v2KindData)
	buf = binenc.AppendUvarint(buf, uint64(math.Round(rec.TimeSeconds*1000)))
	buf = binenc.AppendUvarint(buf, uint64(math.Round(rec.ResSeconds*1000)))
	rows := make([]RecordRow, len(rec.Rows))
	for i, r := range rec.Rows {
		r.Counts = []uint64{v4Count(&r, rec.Events, 0), v4Count(&r, rec.Events, 1), v4Count(&r, rec.Events, 2)}
		r.N = 0
		rows[i] = r
	}
	var flags byte
	if len(rec.Cols) > 0 {
		flags |= v2FlagCols
		if der != nil {
			flags |= v4FlagExprs
		}
	}
	omit := der.omit(rows)
	if omit != 0 {
		flags |= v4FlagOmit
	}
	buf = append(buf, flags)
	if flags&v2FlagCols != 0 {
		buf = binenc.AppendUvarint(buf, uint64(len(rec.Cols)))
		for _, c := range rec.Cols {
			buf = binenc.AppendUvarint(buf, d.intern(c))
		}
	}
	if flags&v4FlagExprs != 0 {
		for _, src := range der.src {
			ref := uint64(0)
			if src != "" {
				ref = d.intern(src) + 1
			}
			buf = binenc.AppendUvarint(buf, ref)
		}
	}
	if omit != 0 {
		buf = binenc.AppendUvarint(buf, omit)
	}
	buf = binenc.AppendUvarint(buf, uint64(len(rows)))
	prevPID := int64(0)
	for i := range rows {
		pid := int64(rows[i].PID)
		buf = binenc.AppendVarint(buf, pid-prevPID)
		prevPID = pid
	}
	for i := range rows {
		buf = binenc.AppendVarint(buf, int64(rows[i].TID)-int64(rows[i].PID))
	}
	for i := range rows {
		buf = binenc.AppendUvarint(buf, d.intern(rows[i].User))
	}
	for i := range rows {
		buf = binenc.AppendUvarint(buf, d.intern(rows[i].Command))
	}
	prev := 0.0
	for i := range rows {
		buf = binenc.AppendFloat(buf, prev, rows[i].CPUPct)
		prev = rows[i].CPUPct
	}
	maxVals := 0
	for i := range rows {
		buf = binenc.AppendUvarint(buf, uint64(len(rows[i].Values)))
		maxVals = max(maxVals, len(rows[i].Values))
	}
	for j := 0; j < maxVals; j++ {
		if omitted(omit, j) {
			continue
		}
		prev = 0.0
		for i := range rows {
			if j < len(rows[i].Values) {
				buf = binenc.AppendFloat(buf, prev, rows[i].Values[j])
				prev = rows[i].Values[j]
			}
		}
	}
	for e := range v4Events {
		for i := range rows {
			buf = binenc.AppendUvarint(buf, rows[i].Counts[e])
		}
	}
	buf = binenc.AppendUvarint(buf, uint64(rec.Machine.Tasks))
	buf = binenc.AppendFloat(buf, 0, rec.Machine.CPUPct)
	for _, name := range v4Events {
		c := uint64(0)
		if e := slices.Index(rec.Events, name); e >= 0 && e < len(rec.Machine.Counts) {
			c = rec.Machine.Counts[e]
		}
		buf = binenc.AppendUvarint(buf, c)
	}
	return buf
}

// appendV4DictFrame is appendDictFrame under the v4 lead byte: the
// dictionary layout did not change between the versions.
func appendV4DictFrame(buf []byte, d *v2Dict, from int) []byte {
	start := len(buf)
	buf = d.appendDictFrame(buf, from)
	buf[start] = recordVersionV4
	return buf
}

// rewriteSegmentsV4 turns the given segment files of a closed store into
// what a v4 build would have left for the same records: each record as a
// v4 data frame, preceded by an incremental v4 dictionary frame when it
// brings strings the file has not named yet. A raw record omits the
// columns of the derivation its segment had in force again, rebuilt
// over v4Events, where they verify; a downsampled one stores every
// value, as a v4 build's tiers did.
func rewriteSegmentsV4(t *testing.T, paths ...string) {
	t.Helper()
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var out, data []byte
		var written *derivation
		d := newV2Dict(nil)
		var cols []string
		err = refForEachDerived(path, fi.Size(), func(rec *Record, der *derivation) error {
			if len(rec.Cols) > 0 {
				cols = rec.Cols
			}
			var v4 *derivation
			if der != nil && rec.ResSeconds == 0 {
				var err error
				if v4, err = derivationOf(der.src, v4Events); err != nil {
					v4 = nil // reads an event v4 did not store
				}
			}
			out4 := *rec
			out4.Cols = nil
			if len(rec.Cols) > 0 || v4 != nil && !v4.same(written) {
				out4.Cols, written = cols, v4
			}
			known := len(d.strs)
			data = appendV4Data(beginFrame(data[:0]), &out4, d, v4)
			endFrame(data)
			if len(d.strs) > known {
				start := len(out)
				out = appendV4DictFrame(beginFrame(out), d, known)
				endFrame(out[start:])
			}
			out = append(out, data...)
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

package store

// The record-format-v2 writer appends and compaction used before v3
// dropped the per-row IPC column — retired from production, kept here
// because it is the only way to produce v2 input: the version-contract,
// fuzz-seed and hand-built-frame tests need frames exactly as a v2 build
// wrote them.

import (
	"math"
	"os"
	"testing"

	"tiptop/internal/binenc"
)

// appendV2Data renders rec as the v2 data payload the retired writer
// produced, byte for byte: the v3 layout plus, after the CPU% chain, an
// XOR chain of each row's IPC as the writer computed it — instr/cycles,
// 0 without cycles.
func appendV2Data(buf []byte, rec *Record, d *v2Dict) []byte {
	buf = append(buf, recordVersionV2, v2KindData)
	buf = binenc.AppendUvarint(buf, uint64(math.Round(rec.TimeSeconds*1000)))
	buf = binenc.AppendUvarint(buf, uint64(math.Round(rec.ResSeconds*1000)))
	var flags byte
	if len(rec.Cols) > 0 {
		flags |= v2FlagCols
	}
	buf = append(buf, flags)
	if flags&v2FlagCols != 0 {
		buf = binenc.AppendUvarint(buf, uint64(len(rec.Cols)))
		for _, c := range rec.Cols {
			buf = binenc.AppendUvarint(buf, d.intern(c))
		}
	}
	rows := rec.Rows
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
	prev = 0.0
	for i := range rows {
		ipc := ratio(rows[i].Instr, rows[i].Cycles)
		buf = binenc.AppendFloat(buf, prev, ipc)
		prev = ipc
	}
	maxVals := 0
	for i := range rows {
		buf = binenc.AppendUvarint(buf, uint64(len(rows[i].Values)))
		maxVals = max(maxVals, len(rows[i].Values))
	}
	for j := 0; j < maxVals; j++ {
		prev = 0.0
		for i := range rows {
			if j < len(rows[i].Values) {
				buf = binenc.AppendFloat(buf, prev, rows[i].Values[j])
				prev = rows[i].Values[j]
			}
		}
	}
	for i := range rows {
		buf = binenc.AppendUvarint(buf, rows[i].Instr)
	}
	for i := range rows {
		buf = binenc.AppendUvarint(buf, rows[i].Cycles)
	}
	for i := range rows {
		buf = binenc.AppendUvarint(buf, rows[i].Misses)
	}
	buf = binenc.AppendUvarint(buf, uint64(rec.Machine.Tasks))
	buf = binenc.AppendFloat(buf, 0, rec.Machine.CPUPct)
	buf = binenc.AppendUvarint(buf, rec.Machine.Instr)
	buf = binenc.AppendUvarint(buf, rec.Machine.Cycles)
	return binenc.AppendUvarint(buf, rec.Machine.Misses)
}

// appendV2DictFrame is appendDictFrame under the v2 lead byte: the
// dictionary layout did not change between the versions.
func appendV2DictFrame(buf []byte, d *v2Dict, from int) []byte {
	start := len(buf)
	buf = d.appendDictFrame(buf, from)
	buf[start] = recordVersionV2
	return buf
}

// rewriteSegmentsV2 turns the given segment files of a closed store into
// what a v2 build would have left for the same records: each record as a
// v2 data frame, preceded by an incremental v2 dictionary frame when it
// brings strings the file has not named yet.
func rewriteSegmentsV2(t *testing.T, paths ...string) {
	t.Helper()
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var out, data []byte
		d := newV2Dict(nil)
		err = refForEachRecord(path, fi.Size(), func(rec *Record) error {
			known := len(d.strs)
			data = appendV2Data(beginFrame(data[:0]), rec, d)
			endFrame(data)
			if len(d.strs) > known {
				start := len(out)
				out = appendV2DictFrame(beginFrame(out), d, known)
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

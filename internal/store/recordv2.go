package store

// The columnar record formats: v3, the layout every record is written
// in — live appends (store.go) and compaction's merged rewrites
// (compact.go) alike — and v2, which older builds wrote and this one
// still reads. The framing (length/CRC header, torn-tail clipping) is
// shared with the legacy v1 JSON records (record.go); only the payload
// differs. Version sniffing is by first payload byte — '{' (0x7b) opens
// a v1 JSON document, 0x02 or 0x03 a binary frame of that version, and
// anything else in 0x04..0x1f is a newer binary version this build
// rejects loudly, mirroring the JSON "v" field contract. Names prefixed
// v2 are the layout v2 introduced and v3 keeps.
//
// A segment holds two payload kinds (shown for v3; v2 leads with 0x02):
//
//	0x03 0x00  dictionary: uvarint count, then length-prefixed strings.
//	           Cumulative — entries append to the segment's table; user,
//	           command and column names in data frames are indices into
//	           it, so a name repeated across thousands of records is
//	           stored once per segment. A live segment writes one
//	           whenever a record brings strings its table lacks, just
//	           ahead of that record; a compacted segment opens with one
//	           frame holding its whole table. v2 and v3 frames extend
//	           the same table, so a v2 tail takes v3 appends.
//	0x03 0x01  data: one record, column-major. Header (uvarint time and
//	           resolution in ms, a flags byte, optional column-name
//	           indices), then per-field arrays over the rows: PIDs
//	           zigzag-delta encoded, TIDs as zigzag(tid-pid), string
//	           fields as dictionary indices, counters as uvarints, and
//	           floats XOR'd against the previous row (binenc.AppendFloat)
//	           so they round-trip bit-exactly. A v2 data frame also holds
//	           a per-row IPC chain after the CPU% chain; v3 drops it, as
//	           every reader recomputes Σinstr/Σcycles from the counters.
//
// Dictionary frames are not records: scans skip them when counting and
// when tracking first/last times, and queries fold them into the
// decoder state even when they precede the queried range.
//
// The decode side is built for reuse: decodeDataInto fills scratch
// the caller may have decoded into before, every row's Values a window
// of one block per record (a 2000-row record costs its scratch one
// values allocation, not 2000), and decodeV2Dict passes strings through
// the scanner's intern table, so a scan shares them with every earlier
// scan that met the same names.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"tiptop/internal/binenc"
)

const (
	recordVersionV2 = 2

	v2KindDict = 0x00
	v2KindData = 0x01

	v2FlagCols = 0x01
)

// Frame kinds as classified by framePrefix.
const (
	frameKindRecord = iota
	frameKindMeta
)

// framePrefix classifies a frame payload and extracts its version and
// (for records) its time without a full decode — the binary counterpart
// of recordPrefix, dispatching on the first payload byte.
func framePrefix(p []byte) (t time.Duration, v int, kind int, ok bool) {
	if len(p) == 0 {
		return 0, 0, 0, false
	}
	if p[0] == '{' {
		t, v, jok := recordPrefix(p)
		return t, v, frameKindRecord, jok
	}
	if p[0] < 0x02 || p[0] >= 0x20 {
		return 0, 0, 0, false
	}
	v = int(p[0])
	if v > RecordVersion {
		// A newer binary version: classify as a record so the caller's
		// version gate rejects it loudly instead of clipping it silently.
		return 0, v, frameKindRecord, true
	}
	if len(p) < 2 {
		return 0, 0, 0, false
	}
	switch p[1] {
	case v2KindDict:
		return 0, v, frameKindMeta, true
	case v2KindData:
		ms, n := binary.Uvarint(p[2:])
		if n <= 0 {
			return 0, 0, 0, false
		}
		// The same float path recordPrefix takes for v1, so a record
		// carries one timestamp regardless of which format holds it.
		secs := float64(ms) / 1000
		return time.Duration(secs * float64(time.Second)), v, frameKindRecord, true
	}
	return 0, 0, 0, false
}

// v2Dict is the string table of a segment being written: strs is the
// table as the file's dictionary frames lay it out, index its inverse.
type v2Dict struct {
	index map[string]uint64
	strs  []string
}

// newV2Dict resumes the table a segment's dictionary frames have
// established so far (nil for a new segment).
func newV2Dict(strs []string) *v2Dict {
	d := &v2Dict{index: make(map[string]uint64, len(strs)), strs: strs}
	for i, s := range strs {
		d.index[s] = uint64(i)
	}
	return d
}

func (d *v2Dict) intern(s string) uint64 {
	if i, ok := d.index[s]; ok {
		return i
	}
	i := uint64(len(d.strs))
	d.index[s] = i
	d.strs = append(d.strs, s)
	return i
}

// appendDictFrame renders the table's entries from index from onward as
// one dictionary payload (the format is cumulative, so a reader appends
// them to whatever the file established before).
func (d *v2Dict) appendDictFrame(buf []byte, from int) []byte {
	buf = append(buf, RecordVersion, v2KindDict)
	buf = binenc.AppendUvarint(buf, uint64(len(d.strs)-from))
	for _, s := range d.strs[from:] {
		buf = binenc.AppendString(buf, s)
	}
	return buf
}

// appendData encodes one record as a v3 data payload, interning the
// strings it references in d; entries that adds must reach the file in a
// dictionary frame ahead of this payload.
func appendData(buf []byte, rec *Record, d *v2Dict) []byte {
	buf = append(buf, RecordVersion, v2KindData)
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
	maxVals := 0
	for i := range rows {
		buf = binenc.AppendUvarint(buf, uint64(len(rows[i].Values)))
		if len(rows[i].Values) > maxVals {
			maxVals = len(rows[i].Values)
		}
	}
	// Values column-major, each column XOR'd down the rows that have it.
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
	buf = binenc.AppendUvarint(buf, rec.Machine.Misses)
	return buf
}

// errCorruptDict marks a checksum-valid dictionary payload that does not
// decode: a scan reports it, recovery clips the segment there.
var errCorruptDict = errors.New("store: corrupt dictionary")

// decodeV2Dict appends a dictionary payload's entries to dict through an
// intern table: an entry the table holds is shared, not re-made, and a
// new one joins it. Every walker passes its scanner's table; a nil one,
// which makes every string afresh, is the test reference decoder's.
func decodeV2Dict(p []byte, dict []string, intern map[string]string) ([]string, error) {
	b := p[2:]
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(p)) {
		return nil, fmt.Errorf("%w (%d entries in %d bytes)", errCorruptDict, n, len(p))
	}
	b = b[w:]
	for i := uint64(0); i < n; i++ {
		size, w := binary.Uvarint(b)
		if w <= 0 || size > uint64(len(b)-w) {
			return nil, fmt.Errorf("%w (entry %d of %d is truncated)", errCorruptDict, i, n)
		}
		raw := b[w : w+int(size)]
		b = b[w+int(size):]
		s, ok := intern[string(raw)] // the conversion in a map index does not allocate
		if !ok {
			s = string(raw)
			if intern != nil {
				intern[s] = s
			}
		}
		dict = append(dict, s)
	}
	return dict, nil
}

// projection restricts a binary record decode to the value columns a
// query references, plus the fixed CPU% row field when asked for.
// Columns are matched by the names in force at each record, so the keep
// set follows screen changes mid-scan; until a segment has named its
// columns the projection decodes every value column — a projected scan
// never drops data it cannot prove is unreferenced.
type projection struct {
	names map[string]bool
	cpu   bool
	// cols is an owned copy of the column names the keep set reflects
	// (decoded Cols live in reused scratch, so they cannot be retained).
	cols  []string
	known bool
	keep  []bool
}

func newProjection(columns []string, cpu bool) *projection {
	p := &projection{names: make(map[string]bool, len(columns)), cpu: cpu}
	for _, c := range columns {
		p.names[c] = true
	}
	return p
}

// reset forgets the columns in force — the state is per segment file,
// like the dictionary.
func (p *projection) reset() {
	p.known = false
	p.cols = p.cols[:0]
	p.keep = p.keep[:0]
}

// update recomputes the keep set for the columns now in force.
func (p *projection) update(cols []string) {
	if len(cols) == 0 {
		return
	}
	if p.known && sameCols(p.cols, cols) {
		return
	}
	p.known = true
	p.cols = append(p.cols[:0], cols...)
	p.keep = p.keep[:0]
	for _, c := range cols {
		p.keep = append(p.keep, p.names[c])
	}
}

// keepCol reports whether value column j must be decoded. Columns
// beyond the known names cannot be referenced by name, so they skip.
func (p *projection) keepCol(j int) bool {
	if !p.known {
		return true
	}
	return j < len(p.keep) && p.keep[j]
}

// decodeDataInto decodes one v2 or v3 data payload against the
// segment's dictionary into rec, reusing its row, column and values
// storage — the decode the scan walker runs. A record's Values are
// carved from one block the record owns (Record.block), sized from the
// summed per-row counts once those are checked against the payload: a
// fresh record costs one values allocation however many rows it has, a
// reused one none unless it is wider than any the scratch held. It
// mirrors appendData exactly, stepping over a v2 frame's IPC chain;
// trailing bytes are an error, not ignored. Strings are shared with the
// segment dictionary, never re-allocated. A nil proj decodes every
// field; otherwise unreferenced value columns and an unrequested CPU%
// chain are stepped over via their control bytes and their slots left
// zero, keeping Values index-aligned with the columns in force.
func decodeDataInto(rec *Record, p []byte, dict []string, proj *projection) error {
	r := binenc.NewReader(p[2:])
	rec.V = int(p[0])
	rec.TimeSeconds = float64(r.Uvarint()) / 1000
	rec.ResSeconds = 0
	if resMs := r.Uvarint(); resMs > 0 {
		rec.ResSeconds = float64(resMs) / 1000
	}
	var err error
	if rec.Cols, err = readCols(r, p, dict, rec.Cols[:0]); err != nil {
		return err
	}
	if proj != nil {
		// The record's own values are laid out under its new columns.
		proj.update(rec.Cols)
	}
	nrows := r.Uvarint()
	if nrows > uint64(len(p)) {
		return fmt.Errorf("store: corrupt binary record (%d rows in %d bytes)", nrows, len(p))
	}
	if uint64(cap(rec.Rows)) < nrows {
		rec.Rows = make([]RecordRow, nrows)
	}
	rows := rec.Rows[:nrows]
	rec.Rows = rows
	prevPID := int64(0)
	for i := range rows {
		prevPID += r.Varint()
		rows[i].PID = int(prevPID)
	}
	for i := range rows {
		rows[i].TID = int(int64(rows[i].PID) + r.Varint())
	}
	for i := range rows {
		if rows[i].User, err = dictRef(r, dict); err != nil {
			return err
		}
	}
	for i := range rows {
		if rows[i].Command, err = dictRef(r, dict); err != nil {
			return err
		}
	}
	if proj != nil && !proj.cpu {
		for i := range rows {
			rows[i].CPUPct = 0
		}
		r.SkipFloats(len(rows))
	} else {
		prev := 0.0
		for i := range rows {
			rows[i].CPUPct = r.Float(prev)
			prev = rows[i].CPUPct
		}
	}
	if rec.V == recordVersionV2 {
		r.SkipFloats(len(rows)) // the per-row IPC chain
	}
	// The per-row value counts are read twice: summed and checked against
	// the payload first, so nothing is sized from a count a corrupt frame
	// merely claims, then again to carve each row's Values.
	counts := *r
	maxVals, total := 0, uint64(0)
	for range rows {
		n := r.Uvarint()
		if n > uint64(len(p))-total {
			return fmt.Errorf("store: corrupt binary record (values)")
		}
		total += n
		maxVals = max(maxVals, int(n))
	}
	if rec.block == nil || uint64(cap(rec.block)) < total {
		rec.block = make([]float64, total)
	}
	block := rec.block[:total]
	clear(block) // a projected decode leaves unreferenced slots unwritten
	for i := range rows {
		// Three-index: a consumer's append cannot reach the next row. Empty
		// Values stay non-nil, matching encoding/json's decode of the v1
		// "values":[] field.
		n := int(counts.Uvarint())
		rows[i].Values, block = block[:n:n], block[n:]
	}
	for j := 0; j < maxVals; j++ {
		if proj != nil && !proj.keepCol(j) {
			chain := 0
			for i := range rows {
				if j < len(rows[i].Values) {
					chain++
				}
			}
			r.SkipFloats(chain)
			continue
		}
		prev := 0.0
		for i := range rows {
			if j < len(rows[i].Values) {
				rows[i].Values[j] = r.Float(prev)
				prev = rows[i].Values[j]
			}
		}
	}
	for i := range rows {
		rows[i].Instr = r.Uvarint()
	}
	for i := range rows {
		rows[i].Cycles = r.Uvarint()
	}
	for i := range rows {
		rows[i].Misses = r.Uvarint()
	}
	rec.Machine.Tasks = int(r.Uvarint())
	rec.Machine.CPUPct = r.Float(0)
	rec.Machine.Instr = r.Uvarint()
	rec.Machine.Cycles = r.Uvarint()
	rec.Machine.Misses = r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("store: corrupt binary record: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("store: binary record has %d trailing bytes", r.Len())
	}
	return nil
}

// v2PeekCols extracts just the column names of a data payload (nil
// when the frame carries none) so pre-range records can keep the column
// tracking honest without decoding their rows.
func v2PeekCols(p []byte, dict []string) ([]string, error) {
	r := binenc.NewReader(p[2:])
	r.Uvarint() // time
	r.Uvarint() // res
	return readCols(r, p, dict, nil)
}

// readCols reads a data payload's column list (the flags byte after the
// time and resolution, then any column-name indices) onto cols: the one
// header parse behind decodeDataInto and v2PeekCols.
func readCols(r *binenc.Reader, p []byte, dict, cols []string) ([]string, error) {
	if r.Byte()&v2FlagCols == 0 {
		return cols, r.Err()
	}
	n := r.Uvarint()
	if n > uint64(len(p)) {
		return cols, fmt.Errorf("store: corrupt binary record (cols)")
	}
	cols = slices.Grow(cols, int(n))
	for i := uint64(0); i < n; i++ {
		c, err := dictRef(r, dict)
		if err != nil {
			return cols, err
		}
		cols = append(cols, c)
	}
	return cols, nil
}

// dictRef reads one dictionary index and resolves it against the
// segment's table, rejecting an index the table does not hold.
func dictRef(r *binenc.Reader, dict []string) (string, error) {
	idx := r.Uvarint()
	if err := r.Err(); err != nil {
		return "", err
	}
	if idx >= uint64(len(dict)) {
		return "", fmt.Errorf("store: binary record references dictionary entry %d of %d", idx, len(dict))
	}
	return dict[idx], nil
}

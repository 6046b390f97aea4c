package store

// The columnar record formats: v5, the layout every record is written
// in — live appends (store.go) and compaction's rewrites (compact.go)
// alike — and v4, which the previous build wrote and this one still
// reads. Version sniffing is by first payload byte: 0x04 or 0x05 opens a
// binary frame of that version, 0x06..0x1f is a newer one, and 0x02,
// 0x03 or '{' (v1 JSON) an older one; both are refused loudly
// (segScanner.frame). Names prefixed v2 are the layout v2 introduced.
//
// A segment holds two payload kinds (shown for v5; v4 leads with 0x04):
//
//	0x05 0x00  dictionary: uvarint count, then length-prefixed strings.
//	           Cumulative — entries append to the segment's table; user,
//	           command, column and event names and column expressions in
//	           data frames are indices into it. A live segment writes one
//	           whenever a record brings strings its table lacks, just
//	           ahead of that record; a compacted segment opens with one
//	           frame holding its whole table. Frames of both versions
//	           extend the same table, so a v4 tail takes v5 appends.
//	0x05 0x01  data: one record, column-major. Header: uvarint time and
//	           resolution in ms, a flags byte, then when the record names
//	           its layout the column and event names, per column its
//	           expression's index + 1 (0: stored), an optional uvarint
//	           mask of the columns the record omits. Then per-field
//	           arrays over the rows: PIDs zigzag-delta encoded, TIDs as
//	           zigzag(tid-pid), strings as dictionary indices, floats
//	           XOR'd against the previous row (binenc.AppendFloat) so they
//	           round-trip bit-exactly — CPU%, then every value column but
//	           the omitted ones, which readers recompute (derive.go) —
//	           the event count and one uvarint chain per event in force,
//	           on a downsampled record the refreshes each row folded, and
//	           the machine roll-up: tasks, CPU%, a count per event.
//
// A v4 frame names no events: its rows carry three count chains,
// v4Events, without the event count or refresh counts.
//
// Dictionary frames and layout headers are decoder state: scans skip
// dictionaries when counting records, and fold both even when they
// precede the queried range.
//
// The decode side is built for reuse: decodeDataInto fills scratch the
// caller may have decoded into before, every row's Values and Counts
// windows of one block each per record, decodeV2Dict passes strings
// through the scanner's intern table, and a derived column's program is
// compiled once per process (derivationOf). walkData locates a data
// payload's parts without decoding it, refusing what decodeDataInto
// refuses: compaction (compact.go) rewrites v5 frames through it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"tiptop/internal/binenc"
	"tiptop/internal/hpm"
)

const (
	v2KindDict = 0x00
	v2KindData = 0x01

	// Header flags: the record names its layout (columns, in v5 events),
	// and its columns' expressions; an omission mask follows; the rows
	// carry the refreshes they folded (v5 downsampled records).
	v2FlagCols  = 0x01
	v4FlagExprs = 0x02
	v4FlagOmit  = 0x04
	v5FlagN     = 0x08

	recordVersionV4 = 4
)

// v4Events are the events of every v4 record, in chain order.
var v4Events = []string{hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses}

// framePrefix classifies a frame payload — a record, or a dictionary
// (meta) — and extracts its version and a record's time without a full
// decode. A frame of a version
// this build does not read classifies as a record of that version, so
// the caller's version gate refuses it instead of clipping it silently.
func framePrefix(p []byte) (t time.Duration, v int, meta, ok bool) {
	if len(p) == 0 {
		return 0, 0, false, false
	}
	if p[0] == '{' {
		return 0, 1, false, true // v1 JSON
	}
	if p[0] < 0x02 || p[0] >= 0x20 {
		return 0, 0, false, false
	}
	v = int(p[0])
	if v < recordVersionV4 || v > RecordVersion {
		return 0, v, false, true
	}
	if len(p) < 2 {
		return 0, 0, false, false
	}
	switch p[1] {
	case v2KindDict:
		return 0, v, true, true
	case v2KindData:
		ms, n := binary.Uvarint(p[2:])
		if n <= 0 {
			return 0, 0, false, false
		}
		secs := float64(ms) / 1000
		return time.Duration(secs * float64(time.Second)), v, false, true
	}
	return 0, 0, false, false
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

// appendData encodes one record as a v5 data payload, interning the
// strings it references in d; entries that adds must reach the file in a
// dictionary frame ahead of this payload. The rows' counts are laid out
// under rec.Events — the segment's last header's, unless head names
// them, rec.Cols and der's expressions. der is the derivation in force
// (nil: every value stored).
func appendData(buf []byte, rec *Record, d *v2Dict, der *derivation, head bool) []byte {
	buf = append(buf, RecordVersion, v2KindData)
	buf = binenc.AppendUvarint(buf, uint64(math.Round(rec.TimeSeconds*1000)))
	buf = binenc.AppendUvarint(buf, uint64(math.Round(rec.ResSeconds*1000)))
	rows, omit := rec.Rows, der.omit(rec.Rows)
	buf = appendLayout(buf, d, rec.Cols, rec.Events, der, head, omit, rec.ResSeconds > 0)
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
	// Values column-major, each column XOR'd down the rows that have it;
	// an omitted column has no chain.
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
	buf = binenc.AppendUvarint(buf, uint64(len(rec.Events)))
	for e := range rec.Events {
		for i := range rows {
			buf = binenc.AppendUvarint(buf, at(rows[i].Counts, e))
		}
	}
	if rec.ResSeconds > 0 {
		for i := range rows {
			buf = binenc.AppendUvarint(buf, uint64(rows[i].N))
		}
	}
	buf = binenc.AppendUvarint(buf, uint64(rec.Machine.Tasks))
	buf = binenc.AppendFloat(buf, 0, rec.Machine.CPUPct)
	for e := range rec.Events {
		buf = binenc.AppendUvarint(buf, at(rec.Machine.Counts, e))
	}
	return buf
}

// appendLayout appends a v5 data payload's flags byte and what it
// announces: when head is set, the layout header — cols, events and
// der's expressions, interned in d — then the omission mask. tiered
// flags the refresh counts a downsampled record's rows carry.
func appendLayout(buf []byte, d *v2Dict, cols, events []string, der *derivation, head bool, omit uint64, tiered bool) []byte {
	var flags byte
	if head {
		flags |= v2FlagCols
		if der != nil {
			flags |= v4FlagExprs
		}
	}
	if omit != 0 {
		flags |= v4FlagOmit
	}
	if tiered {
		flags |= v5FlagN
	}
	buf = append(buf, flags)
	if head {
		for _, names := range [...][]string{cols, events} {
			buf = binenc.AppendUvarint(buf, uint64(len(names)))
			for _, name := range names {
				buf = binenc.AppendUvarint(buf, d.intern(name))
			}
		}
	}
	if flags&v4FlagExprs != 0 {
		// Per column, 0 for a stored one, else 1 + its source's entry.
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
// never drops data it cannot prove is unreferenced. Counts are always
// decoded: a derived column is computed from them.
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
	if p.known && slices.Equal(p.cols, cols) {
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

// decodeDataInto decodes one v4 or v5 data payload against the
// segment's dictionary into rec, reusing its storage — the decode the
// scan walker runs. Every row's Values and Counts are carved from one
// block each (Record.block, .counts), sized once the per-row value
// counts are checked against the payload (a scan batch hands in windows
// onto its slabs: a record that does not fit gets its own). It mirrors
// appendData exactly; trailing bytes are an error. dv carries the layout
// in force — events and derivation — and takes the one this record's
// header sets; an omitted column is recomputed into the slot a stored
// one would decode into. A nil proj decodes every field; otherwise
// unreferenced value columns and an unrequested CPU% chain are stepped
// over and left zero, keeping Values index-aligned with the columns.
func decodeDataInto(rec *Record, p []byte, dict []string, proj *projection, dv *deriver) error {
	r := binenc.NewReader(p[2:])
	rec.TimeSeconds = float64(r.Uvarint()) / 1000
	rec.ResSeconds = 0
	if resMs := r.Uvarint(); resMs > 0 {
		rec.ResSeconds = float64(resMs) / 1000
	}
	var err error
	var flags byte
	var omit uint64
	if rec.Cols, flags, omit, err = readHeader(r, p, rec.ResSeconds == 0, dict, rec.Cols[:0], dv); err != nil {
		return err
	}
	rec.Events = dv.events
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
	// The omitted columns this decode recomputes; they may read CPU%.
	derive := omit
	for m := omit; m != 0 && proj != nil; m &= m - 1 {
		if j := bits.TrailingZeros64(m); !proj.keepCol(j) {
			derive &^= 1 << j
		}
	}
	dropCPU := proj != nil && !proj.cpu
	if dropCPU && derive == 0 {
		r.SkipFloats(len(rows))
	} else {
		prev := 0.0
		for i := range rows {
			rows[i].CPUPct = r.Float(prev)
			prev = rows[i].CPUPct
		}
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
	block := sized(&rec.block, int(total)) // zeroed: a projected decode leaves slots unwritten
	for i := range rows {
		// Three-index: a consumer's append cannot reach the next row.
		n := int(counts.Uvarint())
		rows[i].Values, block = block[:n:n], block[n:]
	}
	for j := 0; j < maxVals; j++ {
		if omitted(omit, j) {
			continue
		}
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
	nev := len(rec.Events)
	if k := uint64(nev); p[0] > recordVersionV4 && r.Uvarint() != k || k*(nrows+1) > uint64(len(p)) {
		return fmt.Errorf("store: corrupt binary record (counts of %d events in force)", nev)
	}
	cblock := sized(&rec.counts, nev*(len(rows)+1)) // every row's counts, then the roll-up's
	for i := range rows {
		rows[i].Counts, cblock = cblock[:nev:nev], cblock[nev:]
	}
	rec.Machine.Counts = cblock
	for e := range nev {
		for i := range rows {
			rows[i].Counts[e] = r.Uvarint()
		}
	}
	for i := range rows {
		if rows[i].N = 0; flags&v5FlagN != 0 {
			rows[i].N = int(min(r.Uvarint(), math.MaxInt32))
		}
	}
	// Omitted columns are recomputed from the counts just read, into the
	// same slots a stored one decodes into.
	if derive != 0 {
		dv.cur.fill(rows, derive)
	}
	for i := 0; dropCPU && i < len(rows); i++ {
		rows[i].CPUPct = 0 // unprojected fields read zero
	}
	rec.Machine.Tasks = int(r.Uvarint())
	rec.Machine.CPUPct = r.Float(0)
	for e := range rec.Machine.Counts {
		rec.Machine.Counts[e] = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("store: corrupt binary record: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("store: binary record has %d trailing bytes", r.Len())
	}
	return nil
}

// frameLayout is where a data payload's parts lie, as walkData finds
// them: what compaction rewrites (compact.go) copies, and what it
// re-addresses.
type frameLayout struct {
	res   uint64   // the resolution, ms: 0 for a raw record
	head  int      // offset of the flags byte; the time and resolution precede it
	flags byte     // the header's flags
	cols  []string // the columns the header names: empty when it names none
	omit  uint64   // the omission mask
	nrows uint64
	ids   int      // offset of the row count, then the PIDs and the TIDs
	strs  int      // offset of the rows' dictionary indices: refs
	refs  []uint64 // the rows' user, then command dictionary indices
	tail  int      // offset of the CPU% chain and every field behind it
}

// walkData locates a v4 or v5 data payload's parts against the segment's
// dictionary without decoding its rows, folding its header into dv as
// decodeDataInto does. Short of whole it stops after the rows'
// dictionary indices, which is all a dictionary pass reads; whole, it
// steps over every field behind them too and refuses exactly the
// payloads decodeDataInto refuses.
func walkData(p []byte, dict []string, dv *deriver, lay *frameLayout, whole bool) error {
	r := binenc.NewReader(p[2:])
	r.Uvarint() // time
	lay.res = r.Uvarint()
	lay.head = len(p) - r.Len()
	var err error
	if lay.cols, lay.flags, lay.omit, err = readHeader(r, p, lay.res == 0, dict, lay.cols[:0], dv); err != nil {
		return err
	}
	off := len(p) - r.Len()
	lay.ids = off
	nrows, w := binary.Uvarint(p[off:])
	if w <= 0 || nrows > uint64(len(p)) {
		return fmt.Errorf("store: corrupt binary record (row count)")
	}
	lay.nrows = nrows
	off, ok := skipUvarints(p, off+w, 2*nrows) // PIDs, TIDs
	if !ok {
		return fmt.Errorf("store: corrupt binary record (task IDs)")
	}
	lay.strs, lay.refs = off, lay.refs[:0]
	for range 2 * nrows {
		idx, w := binary.Uvarint(p[off:])
		if w <= 0 {
			return fmt.Errorf("store: corrupt binary record (dictionary index)")
		}
		if idx >= uint64(len(dict)) {
			return fmt.Errorf("store: binary record references dictionary entry %d of %d", idx, len(dict))
		}
		lay.refs = append(lay.refs, idx)
		off += w
	}
	lay.tail = off
	if !whole {
		return nil
	}
	if off, ok = skipFloats(p, off, nrows); !ok { // CPU%
		return fmt.Errorf("store: corrupt binary record (CPU%%)")
	}
	// Every row's values but the omitted columns', in chains.
	total, stored := uint64(0), uint64(0)
	for range nrows {
		n, w := binary.Uvarint(p[off:])
		if w <= 0 || n > uint64(len(p))-total {
			return fmt.Errorf("store: corrupt binary record (values)")
		}
		total += n
		below := lay.omit
		if n < maxDerived {
			below &= 1<<n - 1
		}
		stored += n - uint64(bits.OnesCount64(below))
		off += w
	}
	if off, ok = skipFloats(p, off, stored); !ok {
		return fmt.Errorf("store: corrupt binary record (values)")
	}
	nev := uint64(len(dv.events))
	if p[0] > recordVersionV4 {
		k, w := binary.Uvarint(p[off:])
		if w <= 0 || k != nev {
			return fmt.Errorf("store: corrupt binary record (counts of %d events in force)", nev)
		}
		off += w
	}
	if nev*(nrows+1) > uint64(len(p)) {
		return fmt.Errorf("store: corrupt binary record (counts of %d events in force)", nev)
	}
	n := nev * nrows // the counts,
	if lay.flags&v5FlagN != 0 {
		n += nrows // the refresh counts
	}
	off, ok = skipUvarints(p, off, n+1) // and the roll-up's tasks
	if ok {
		off, ok = skipFloats(p, off, 1) // the roll-up's CPU%
	}
	if ok {
		off, ok = skipUvarints(p, off, nev)
	}
	if !ok {
		return fmt.Errorf("store: corrupt binary record (counts)")
	}
	if off != len(p) {
		return fmt.Errorf("store: binary record has %d trailing bytes", len(p)-off)
	}
	return nil
}

// asEncoded reports whether the payload lay describes is laid out as
// appendData lays out its record under der, the derivation in force:
// omitting every column der derives (nothing without der or rows), and
// carrying refresh counts exactly when it is downsampled. Transcoding
// such a payload writes what decoding and encoding it would.
func (lay *frameLayout) asEncoded(der *derivation) bool {
	want := uint64(0)
	if der != nil && lay.nrows > 0 {
		want = der.mask()
	}
	return lay.omit == want && (lay.flags&v5FlagN != 0) == (lay.res > 0)
}

// appendTranscoded appends v5 data payload p, as walkData laid it out in
// lay, rewritten for another segment: its layout header as appendData
// writes it (head, cols, events and der's expressions interned in d), its
// rows' dictionary indices as lay.refs now holds them, every other byte
// as it was.
func appendTranscoded(buf, p []byte, lay *frameLayout, d *v2Dict, cols, events []string, der *derivation, head bool) []byte {
	buf = append(buf, p[:lay.head]...) // version, kind, time, resolution
	buf = appendLayout(buf, d, cols, events, der, head, lay.omit, lay.res > 0)
	buf = append(buf, p[lay.ids:lay.strs]...) // row count, PIDs, TIDs
	for _, idx := range lay.refs {
		buf = binenc.AppendUvarint(buf, idx)
	}
	return append(buf, p[lay.tail:]...) // CPU%, values, counts, roll-up
}

// skipUvarints steps over n uvarints — or zigzag varints, which read the
// same — from p[off:], accepting exactly what binary.Uvarint accepts.
func skipUvarints(p []byte, off int, n uint64) (int, bool) {
	for ; n > 0; n-- {
		if off < len(p) && p[off] < 0x80 {
			off++
			continue
		}
		_, w := binary.Uvarint(p[off:])
		if w <= 0 {
			return off, false
		}
		off += w
	}
	return off, true
}

// skipFloats steps over n binenc floats from p[off:].
func skipFloats(p []byte, off int, n uint64) (int, bool) {
	r := binenc.NewReader(p[off:])
	r.SkipFloats(int(n))
	return len(p) - r.Len(), r.Err() == nil
}

// peekLayout reads just the header of a data payload — returning its
// column names, nil when it names none — so pre-range records keep the
// layout in dv honest without decoding their rows.
func peekLayout(p []byte, dict []string, dv *deriver) ([]string, error) {
	r := binenc.NewReader(p[2:])
	r.Uvarint() // time
	cols, _, _, err := readHeader(r, p, r.Uvarint() == 0, dict, nil, dv)
	return cols, err
}

// readHeader reads a data payload's header after its time and
// resolution (raw: 0) onto cols, returning its flags and omission mask
// — the one header parse behind decodeDataInto and peekLayout. It sets
// the events (v4Events for a v4 record) and the derivation in force in
// dv, which a header that names its layout replaces: its columns'
// expressions over its events, or none. The mask may only name columns
// that derivation derives over the record's events, and only a v5
// downsampled record carries refresh counts. dv changes only when the
// whole header reads.
func readHeader(r *binenc.Reader, p []byte, raw bool, dict, cols []string, dv *deriver) (_ []string, flags byte, omit uint64, err error) {
	v5, events := p[0] > recordVersionV4, v4Events
	if v5 {
		events = dv.events
	}
	if flags = r.Byte(); flags&^(v2FlagCols|v4FlagExprs|v4FlagOmit|v5FlagN) != 0 || flags&(v2FlagCols|v4FlagExprs) == v4FlagExprs ||
		flags&v5FlagN != 0 && (raw || !v5) {
		return cols, 0, 0, fmt.Errorf("store: corrupt binary record (flags %#x)", flags)
	}
	cur := dv.cur
	if flags&v2FlagCols != 0 {
		if cols, err = readNames(r, p, dict, cols); err != nil {
			return cols, 0, 0, err
		}
		if v5 {
			if dv.evs, err = readNames(r, p, dict, dv.evs[:0]); err != nil {
				return cols, 0, 0, err
			}
			if !slices.Equal(dv.evs, events) {
				if !slices.Equal(dv.evs, dv.last) { // hand the scratch over: emitted records keep it
					dv.last, dv.evs = dv.evs, nil
				}
				events = dv.last // maybe the previous segment's
			}
		}
		cur = nil
		if flags&v4FlagExprs != 0 {
			if cur, err = dv.read(r, dict, len(cols), events); err != nil {
				return cols, 0, 0, err
			}
		}
	}
	if flags&v4FlagOmit != 0 {
		if omit = r.Uvarint(); omit == 0 {
			return cols, 0, 0, fmt.Errorf("store: corrupt binary record (empty omission mask)")
		}
		for m := omit; m != 0; m &= m - 1 {
			if j := bits.TrailingZeros64(m); cur == nil || j >= len(cur.prog) || cur.prog[j] == nil || !slices.Equal(cur.events, events) {
				return cols, 0, 0, fmt.Errorf("store: binary record omits column %d, which no expression in force derives", j)
			}
		}
	}
	if err := r.Err(); err != nil {
		return cols, 0, 0, err
	}
	dv.cur, dv.events = cur, events
	return cols, flags, omit, nil
}

// readNames reads a uvarint count of dictionary references onto names.
func readNames(r *binenc.Reader, p []byte, dict, names []string) ([]string, error) {
	n := r.Uvarint()
	if n > uint64(len(p)) {
		return names, fmt.Errorf("store: corrupt binary record (names)")
	}
	if cap(names) < int(n) { // names is empty: no copy to keep
		names = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		name, err := dictRef(r, dict)
		if err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}

// sized returns *buf at length n, zeroed, reallocating it only when it
// lacks the capacity (or is nil: an empty row's Values are non-nil).
func sized[T any](buf *[]T, n int) []T {
	if *buf == nil || cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// omitted reports whether mask omits value column j.
func omitted(mask uint64, j int) bool { return j < maxDerived && mask&(1<<j) != 0 }

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

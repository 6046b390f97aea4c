package store

// Coverage-guided fuzzing of the frame payload readers — the one place
// the store parses bytes it did not just write (recovery and compacted
// segments survive crashes, partial writes and disk corruption). The
// contract under fuzz: decode may reject a payload with an error, but
// it must never panic, never over-read past the payload, and never
// allocate storage proportional to a length field a corrupt frame
// merely claims (every count is bounds-checked against the payload
// size before use).

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"tiptop/internal/binenc"
)

// fuzzSeedRecord is a representative record touching every encoded
// field shape: column names, delta-coded PIDs, a thread row, XOR'd
// float chains, ragged value rows and the machine roll-up.
func fuzzSeedRecord() *Record {
	return &Record{
		V:           RecordVersion,
		TimeSeconds: 12.345,
		ResSeconds:  10,
		Cols:        []string{"IPC", "CYCLES", "%MISS"},
		Rows: []RecordRow{
			{PID: 100, TID: 100, User: "root", Command: "tiptop",
				CPUPct: 51.5, Values: []float64{1.25, 3.1e9, 0.02},
				Instr: 1000, Cycles: 800, Misses: 3},
			{PID: 100, TID: 101, User: "root", Command: "tiptop",
				CPUPct: 12.5, Values: []float64{0.75},
				Instr: 600, Cycles: 800, Misses: 1},
			{PID: 204, TID: 204, User: "user", Command: "mcf",
				CPUPct: 99.9, Values: nil,
				Instr: 310, Cycles: 1000, Misses: 42},
		},
		Machine: RecordAgg{Tasks: 3, CPUPct: 163.9, Instr: 1910, Cycles: 2600, Misses: 46},
	}
}

// Expression sources for v4 seeds: two a row's counts determine, and
// three a reader must refuse — one that does not compile, and two that
// read what a row does not store (rate's implicit DELTA_NS, CPU_PCT).
var (
	fuzzDerivedSrc = []string{"ratio(INSTRUCTIONS, CYCLES)", "per100(CACHE_MISSES, INSTRUCTIONS)"}
	fuzzBadSrc     = []string{"mega(", "rate(CYCLES)", "CPU_PCT * 2"}
)

// fuzzSeedDict is the seed record's table plus every seed expression.
func fuzzSeedDict(rec *Record) *v2Dict {
	dict := newV2Dict(nil)
	for _, r := range rec.Rows {
		dict.intern(r.User)
		dict.intern(r.Command)
	}
	for _, c := range rec.Cols {
		dict.intern(c)
	}
	for _, src := range append(slices.Clone(fuzzDerivedSrc), fuzzBadSrc...) {
		dict.intern(src)
	}
	return dict
}

// fuzzDerivedRecord is the seed record as an engine whose screen derives
// its first and last columns would have made it, and that derivation.
func fuzzDerivedRecord(t testing.TB) (*Record, *derivation) {
	rec := fuzzSeedRecord()
	der, err := derivationOf([]string{fuzzDerivedSrc[0], "", fuzzDerivedSrc[1]})
	if err != nil {
		t.Fatal(err)
	}
	stack := make([]float64, der.depth)
	for i := range rec.Rows {
		r := &rec.Rows[i]
		for j := range r.Values {
			if der.prog[j] != nil {
				r.Values[j] = der.eval(j, r, stack)
			}
		}
	}
	return rec, der
}

// v4HeaderFrame hand-builds a row-less v4 data payload whose header names
// columns cols (dictionary indices) with expression references refs (1
// + a dictionary index, 0 for a stored column) and omits mask.
func v4HeaderFrame(cols, refs []uint64, mask uint64) []byte {
	b := []byte{recordVersionV4, v2KindData}
	b = binenc.AppendUvarint(b, 12345) // time, ms
	b = binenc.AppendUvarint(b, 0)     // res
	flags := byte(v2FlagCols | v4FlagExprs)
	if mask != 0 {
		flags |= v4FlagOmit
	}
	b = append(b, flags)
	b = binenc.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = binenc.AppendUvarint(b, c)
	}
	for _, r := range refs {
		b = binenc.AppendUvarint(b, r)
	}
	if mask != 0 {
		b = binenc.AppendUvarint(b, mask)
	}
	b = binenc.AppendUvarint(b, 0) // rows
	b = binenc.AppendUvarint(b, 0) // the roll-up: tasks,
	b = binenc.AppendFloat(b, 0, 0)
	return append(b, 0, 0, 0) // and its three counts
}

// badV4Frames are v4 payloads a reader must refuse against the seed
// dictionary d, by what is wrong with them.
func badV4Frames(d *v2Dict) map[string][]byte {
	cols := []uint64{d.index["IPC"], d.index["CYCLES"], d.index["%MISS"]}
	expr := func(src string) uint64 { return d.index[src] + 1 }
	good := expr(fuzzDerivedSrc[0])
	return map[string][]byte{
		"mask wider than the columns":   v4HeaderFrame(cols, []uint64{good, 0, 0}, 1|1<<5),
		"mask on a stored column":       v4HeaderFrame(cols, []uint64{good, 0, 0}, 1<<1),
		"expression index out of range": v4HeaderFrame(cols, []uint64{uint64(len(d.strs)) + 1, 0, 0}, 0),
		"expression does not compile":   v4HeaderFrame(cols, []uint64{expr(fuzzBadSrc[0]), 0, 0}, 0),
		"expression reads DELTA_NS":     v4HeaderFrame(cols, []uint64{expr(fuzzBadSrc[1]), 0, 0}, 0),
		"expression reads CPU_PCT":      v4HeaderFrame(cols, []uint64{0, expr(fuzzBadSrc[2]), 0}, 0),
	}
}

// TestDecodeRefusesBadDerivations: every malformed v4 header is refused
// with an error, while the well-formed frame its derivation leaves
// columns out of decodes to the record an engine appended, bit for bit.
func TestDecodeRefusesBadDerivations(t *testing.T) {
	rec, der := fuzzDerivedRecord(t)
	d := fuzzSeedDict(rec)
	for name, p := range badV4Frames(d) {
		if err := decodeDataInto(&Record{}, p, d.strs, nil, &deriver{}); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	p := appendData(nil, rec, d, der)
	r := binenc.NewReader(p[2:])
	r.Uvarint() // time
	r.Uvarint() // res
	if flags := r.Byte(); flags&v4FlagOmit == 0 {
		t.Fatalf("the derived seed record omits nothing (flags %#x)", flags)
	}
	got := &Record{}
	if err := decodeDataInto(got, p, d.strs, nil, &deriver{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordBytes(got, nil), recordBytes(rec, nil)) {
		t.Fatalf("the derived record decodes as %+v, want %+v", got, rec)
	}
}

// FuzzDecodeFrame drives the scan walker's binary frame decode, v4, v3
// and v2 (and the v1 JSON path it dispatches to), with corrupt, truncated
// and mutated payloads, asserting walker ≡ reference loop on each. Each
// input is walked twice as a frame — against an empty dictionary and
// against a pre-seeded one — so both the index-out-of-range rejection
// and the in-range dictionary paths stay covered, and the cheap prefix
// readers (framePrefix, v2PeekCols) see the same bytes the full decode
// does.
// The same bytes are then read as a whole segment file, by the walker
// and by recovery, which steps the same walker over a tail it is about
// to append to; the two must agree on the records of the valid prefix
// recovery keeps (recoveryMatchesScan).
func FuzzDecodeFrame(f *testing.F) {
	rec := fuzzSeedRecord()
	dict := fuzzSeedDict(rec)
	dictFrame := dict.appendDictFrame(nil, 0)
	dataFrame := appendData(nil, rec, dict, nil)
	// v4's derived columns: a record that leaves two out, and the
	// headers a reader must refuse.
	derived, der := fuzzDerivedRecord(f)
	f.Add(appendData(nil, derived, dict, der))
	for _, p := range badV4Frames(dict) {
		f.Add(p)
	}

	f.Add([]byte(`{"v":1,"time_s":1.5,"rows":[{"pid":1,"user":"u","command":"c",` +
		`"cpu_pct":50,"ipc":1,"values":[1],"instr":10,"cycles":10,"misses":0}],` +
		`"machine":{"tasks":1,"cpu_pct":50,"instr":10,"cycles":10,"misses":0}}`))
	f.Add(dictFrame)
	f.Add(dataFrame)
	// The same record and table as the v3 and v2 builds wrote them.
	f.Add(appendV3DictFrame(nil, dict, 0))
	f.Add(appendV3Data(nil, rec, dict))
	f.Add(appendV2DictFrame(nil, dict, 0))
	f.Add(appendV2Data(nil, rec, dict))
	// Truncations and header mutations seed the interesting failure
	// modes directly; the engine mutates from there.
	f.Add(dataFrame[:len(dataFrame)/2])
	f.Add(dataFrame[:2])
	f.Add(dictFrame[:3])
	f.Add([]byte{recordVersionV2})
	f.Add([]byte{recordVersionV2, v2KindData})
	f.Add([]byte{recordVersionV2, 0x7f})
	f.Add([]byte{RecordVersion + 1, v2KindData, 0x00}) // future binary version
	f.Add([]byte("{"))
	f.Add([]byte{})
	// A live segment's opening: two records, each preceded by the
	// incremental dictionary frame carrying the strings it introduced.
	framed := func(payload []byte) []byte {
		frame := append(beginFrame(nil), payload...)
		endFrame(frame)
		return frame
	}
	live := newV2Dict(nil)
	first := *rec
	first.Rows = rec.Rows[:2]
	data1 := framed(appendData(nil, &first, live, nil))
	known := len(live.strs)
	dict1 := framed(live.appendDictFrame(nil, 0))
	data2 := framed(appendData(nil, rec, live, nil))
	dict2 := framed(live.appendDictFrame(nil, known))
	seg := bytes.Join([][]byte{dict1, data1, dict2, data2}, nil)
	if sg, err := recoverWalk(seg); err != nil || sg.n != 2 || sg.size != int64(len(seg)) || len(sg.dict.strs) != len(live.strs) || known == len(live.strs) {
		f.Fatalf("segment seed recovers as %+v (%v), want 2 records over %d bytes and a %d-entry dictionary grown from %d",
			sg, err, len(seg), len(live.strs), known)
	}
	f.Add(seg)
	// A v1 record whose time_s repeats: recovery dates it by the first,
	// so the decode must not quietly take the second.
	f.Add(framed([]byte(`{"v":1,"time_s":1.5,"time_s":7,"rows":[],"machine":{}}`)))

	seeded := append([]string(nil), dict.strs...)
	warmPrefix := framed(dictFrame)
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The input as one frame of a segment: alone (every dictionary
		// reference is out of range) and mid-segment (the dictionary is
		// established); then as a whole segment file.
		walkerMatchesReference(t, framed(payload))
		walkerMatchesReference(t, append(append([]byte(nil), warmPrefix...), framed(payload)...))
		walkerMatchesReference(t, payload)
		framePrefix(payload)
		recoveryMatchesScan(t, payload)
		if len(payload) >= 2 && payload[0] >= recordVersionV2 && payload[0] <= RecordVersion && payload[1] == v2KindData {
			var rec Record
			if err := decodeDataInto(&rec, payload, seeded, nil, &deriver{}); err != nil {
				// The cheap peek may accept a payload the full decode
				// rejects (it only reads the header prefix).
				return
			}
			if len(rec.Rows) > len(payload) {
				t.Fatalf("decoded %d rows from a %d-byte payload", len(rec.Rows), len(payload))
			}
			// The reverse — peek erroring, or disagreeing about the
			// column list, where the full decode succeeded — would mean
			// the two readers disagree about the header layout.
			cols, err := v2PeekCols(payload, seeded, &deriver{})
			if err != nil {
				t.Fatalf("the full decode accepted a payload v2PeekCols rejects: %v", err)
			}
			if len(cols) != len(rec.Cols) {
				t.Fatalf("v2PeekCols saw %d columns, the full decode %d", len(cols), len(rec.Cols))
			}
		}
	})
}

// walkerMatchesReference reads seg as a segment file through the scan
// walker — one leased scanner and one reused scratch record, the way an
// inline ScanWith and Compact run them — and through the reference
// loop's fresh decodes: the same records with the same columns in force,
// and failure on the same frame or on none. A projecting walker must
// stop at the same record. Each walk runs twice over the same scratch
// and scanner, so the second decodes every record into storage the first
// left full — of the same input, and of whatever the fuzzer ran before.
func walkerMatchesReference(t *testing.T, seg []byte) {
	t.Helper()
	const all = 1<<63 - 1
	var want [][]byte
	var cols []string
	refErr := refScanStream(bytes.NewReader(seg), -all, all, &cols, func(rec *Record, cols []string) error {
		want = append(want, recordBytes(rec, cols))
		return nil
	})
	scratch := &Record{}
	for _, proj := range []*projection{nil, newProjection([]string{"IPC"}, false)} {
		sc := getScanner(nil, proj)
		defer sc.release()
		for pass := 0; pass < 2; pass++ {
			n := 0
			var inForce []string
			err := sc.scan(bytes.NewReader(seg), -all, all, func() *Record { return scratch },
				func(rec *Record, fileCols []string) error {
					if fileCols != nil {
						inForce = fileCols
					}
					if proj == nil && (n >= len(want) || !bytes.Equal(recordBytes(rec, inForce), want[n])) {
						t.Fatalf("walker record %d (pass %d) differs from the reference decode", n, pass)
					}
					n++
					return nil
				})
			if n != len(want) || (err == nil) != (refErr == nil) {
				t.Fatalf("walker (projecting: %v, pass %d) emitted %d records (%v), the reference %d (%v)",
					proj != nil, pass, n, err, len(want), refErr)
			}
		}
	}
}

// recoverWalk runs recovery over seg as the writable tail of an
// in-memory store: openSegment on a scanner leased for it alone.
func recoverWalk(seg []byte) (*segment, error) {
	m := newMemFS()
	if err := m.mkdirAll("store"); err != nil {
		return nil, err
	}
	path := segmentPath("store", "raw", 1)
	m.files[path] = &memInode{data: bytes.Clone(seg)}
	sc := getScanner(m, nil)
	defer sc.release()
	sg, err := openSegment(sc, path, 1, 1, true)
	if err != nil {
		return nil, err
	}
	return sg, sg.f.Close() // not seal: that drops the resumed table
}

// recoveryMatchesScan holds recovery to the scan walker on seg read as a
// whole segment file. Where recovery fails (a newer version), so does
// the scan. Otherwise, over the valid prefix recovery kept, the scan
// emits exactly recovery's record count with its first and last times,
// or it fails: recovery does not decode rows, so a record it counts may
// still not decode. The table the tail resumes is the one the scan
// folds from the same prefix.
func recoveryMatchesScan(t *testing.T, seg []byte) {
	t.Helper()
	const all = 1<<63 - 1
	sg, rerr := recoverWalk(seg)
	sc := getScanner(nil, nil)
	defer sc.release()
	if rerr != nil {
		if err := sc.scan(bytes.NewReader(seg), -all, all, func() *Record { return &Record{} },
			func(*Record, []string) error { return nil }); err == nil {
			t.Fatalf("recovery fails (%v) where the scan does not", rerr)
		}
		return
	}
	if sg.size > int64(len(seg)) || sg.n > sg.size {
		t.Fatalf("recovery over %d bytes claims %d valid bytes, %d records", len(seg), sg.size, sg.n)
	}
	var n int64
	var first, last time.Duration
	err := sc.scan(bytes.NewReader(seg[:sg.size]), -all, all, func() *Record { return &Record{} },
		func(rec *Record, _ []string) error {
			if n == 0 {
				first = recTime(rec)
			}
			last = recTime(rec)
			n++
			return nil
		})
	if err != nil {
		return
	}
	if n != sg.n || (n > 0 && (first != sg.first || last != sg.last)) {
		t.Fatalf("recovery counts %d records over [%v, %v], the scan of its valid prefix %d over [%v, %v]",
			sg.n, sg.first, sg.last, n, first, last)
	}
	if !slices.Equal(sc.dict, sg.dict.strs) {
		t.Fatalf("recovery resumes a %d-entry table, the scan folds %d", len(sg.dict.strs), len(sc.dict))
	}
}

// recordBytes renders a decoded record and the columns in force as
// bytes, so records compare bit for bit (NaN payloads included) and
// nil-versus-empty slices — fresh decode versus reused scratch — do not.
func recordBytes(rec *Record, cols []string) []byte {
	d := newV2Dict(nil)
	b := appendData(nil, rec, d, nil)
	for _, c := range cols {
		b = append(append(b, 0), c...)
	}
	return d.appendDictFrame(b, 0)
}

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
	"bufio"
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"tiptop/internal/binenc"
)

// fuzzSeedRecord is a representative record touching every encoded
// field shape: column and event names, delta-coded PIDs, a thread row,
// XOR'd float chains, ragged value and count rows, refresh counts and
// the machine roll-up.
func fuzzSeedRecord() *Record {
	return &Record{
		TimeSeconds: 12.345,
		ResSeconds:  10,
		Cols:        []string{"IPC", "CYCLES", "%MISS"},
		Events:      []string{"INSTRUCTIONS", "CYCLES", "CACHE_MISSES", "BRANCHES"},
		Rows: []RecordRow{
			{PID: 100, TID: 100, User: "root", Command: "tiptop",
				CPUPct: 51.5, Values: []float64{1.25, 3.1e9, 0.02},
				Counts: []uint64{1000, 800, 3, 120}, N: 10},
			{PID: 100, TID: 101, User: "root", Command: "tiptop",
				CPUPct: 12.5, Values: []float64{0.75},
				Counts: []uint64{600, 800, 1, 90}, N: 9},
			{PID: 204, TID: 204, User: "user", Command: "mcf",
				CPUPct: 99.9, Values: nil,
				Counts: []uint64{310, 1000, 42}, N: 1},
		},
		Machine: RecordAgg{Tasks: 3, CPUPct: 163.9, Counts: []uint64{1910, 2600, 46, 210}},
	}
}

// Expression sources for derived-column seeds: two a row's counts
// determine, and three a reader must refuse — one that does not
// compile, one that reads what a row does not store (rate's implicit
// DELTA_NS), and one reading an event the seed record's segment does
// not store.
var (
	fuzzDerivedSrc = []string{"ratio(INSTRUCTIONS, CYCLES)", "per100(CACHE_MISSES, INSTRUCTIONS)"}
	fuzzBadSrc     = []string{"mega(", "rate(CYCLES)", "ratio(L2_MISSES, INSTRUCTIONS)"}
)

// fuzzSeedDict is the seed record's table plus every seed expression.
func fuzzSeedDict(rec *Record) *v2Dict {
	dict := newV2Dict(nil)
	for _, r := range rec.Rows {
		dict.intern(r.User)
		dict.intern(r.Command)
	}
	for _, name := range append(slices.Clone(rec.Cols), rec.Events...) {
		dict.intern(name)
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
	der, err := derivationOf([]string{fuzzDerivedSrc[0], "", fuzzDerivedSrc[1]}, rec.Events)
	if err != nil {
		t.Fatal(err)
	}
	der.fill(rec.Rows, der.mask())
	return rec, der
}

// headerFrame hand-builds a row-less data payload of version v whose
// header names columns cols and, in v5, events evs (dictionary indices),
// with expression references refs (1 + a dictionary index, 0 for a
// stored column), omits mask, and carries flags beyond those. k is the
// event count a v5 body declares.
func headerFrame(v byte, res uint64, flags byte, cols, evs, refs []uint64, mask uint64, k uint64) []byte {
	b := []byte{v, v2KindData}
	b = binenc.AppendUvarint(b, 12345) // time, ms
	b = binenc.AppendUvarint(b, res)
	flags |= v2FlagCols | v4FlagExprs
	if mask != 0 {
		flags |= v4FlagOmit
	}
	b = append(b, flags)
	names := [][]uint64{cols}
	if v > recordVersionV4 {
		names = append(names, evs)
	}
	for _, ns := range names {
		b = binenc.AppendUvarint(b, uint64(len(ns)))
		for _, n := range ns {
			b = binenc.AppendUvarint(b, n)
		}
	}
	for _, r := range refs {
		b = binenc.AppendUvarint(b, r)
	}
	if mask != 0 {
		b = binenc.AppendUvarint(b, mask)
	}
	b = binenc.AppendUvarint(b, 0) // rows
	nev := uint64(len(v4Events))
	if v > recordVersionV4 {
		b = binenc.AppendUvarint(b, k)
		nev = k
	}
	b = binenc.AppendUvarint(b, 0) // the roll-up: tasks,
	b = binenc.AppendFloat(b, 0, 0)
	return append(b, make([]byte, nev)...) // and its counts
}

// badFrames are payloads a reader must refuse against the seed
// dictionary d, by what is wrong with them.
func badFrames(d *v2Dict) map[string][]byte {
	cols := []uint64{d.index["IPC"], d.index["CYCLES"], d.index["%MISS"]}
	evs := []uint64{d.index["INSTRUCTIONS"], d.index["CYCLES"], d.index["CACHE_MISSES"]}
	expr := func(src string) uint64 { return d.index[src] + 1 }
	good := expr(fuzzDerivedSrc[0])
	v4 := func(refs []uint64, mask uint64) []byte {
		return headerFrame(recordVersionV4, 0, 0, cols, nil, refs, mask, 3)
	}
	v5 := func(res uint64, flags byte, evs, refs []uint64, mask, k uint64) []byte {
		return headerFrame(RecordVersion, res, flags, cols, evs, refs, mask, k)
	}
	return map[string][]byte{
		"v4: mask wider than the columns":        v4([]uint64{good, 0, 0}, 1|1<<5),
		"v4: mask on a stored column":            v4([]uint64{good, 0, 0}, 1<<1),
		"v4: expression index out of range":      v4([]uint64{uint64(len(d.strs)) + 1, 0, 0}, 0),
		"v4: expression does not compile":        v4([]uint64{expr(fuzzBadSrc[0]), 0, 0}, 0),
		"v4: expression reads DELTA_NS":          v4([]uint64{expr(fuzzBadSrc[1]), 0, 0}, 0),
		"v5: event index out of range":           v5(0, 0, []uint64{evs[0], uint64(len(d.strs))}, []uint64{0, 0, 0}, 0, 2),
		"v5: counts disagree with events":        v5(0, 0, evs, []uint64{good, 0, 0}, 0, 2),
		"v5: refresh counts on a raw record":     v5(0, v5FlagN, evs, []uint64{good, 0, 0}, 0, 3),
		"v5: expression reads an unstored event": v5(10_000, v5FlagN, evs, []uint64{expr(fuzzBadSrc[2]), 0, 0}, 0, 3),
		"v5: mask under other events":            v5(0, 0, evs[:2], []uint64{0, 0, expr(fuzzDerivedSrc[1])}, 1<<2, 2),
	}
}

// TestDecodeRefusesBadDerivations: every malformed header is refused
// with an error, while the well-formed frame its derivation leaves
// columns out of decodes to the record an engine appended, bit for bit.
func TestDecodeRefusesBadDerivations(t *testing.T) {
	rec, der := fuzzDerivedRecord(t)
	d := fuzzSeedDict(rec)
	ok := headerFrame(RecordVersion, 10_000, v5FlagN, []uint64{d.index["IPC"], d.index["CYCLES"], d.index["%MISS"]},
		[]uint64{d.index["INSTRUCTIONS"], d.index["CYCLES"]}, []uint64{d.index[fuzzDerivedSrc[0]] + 1, 0, 0}, 1, 2)
	if err := decodeDataInto(&Record{}, ok, d.strs, nil, &deriver{}); err != nil {
		t.Fatalf("the well-formed hand-built header: %v", err)
	}
	for name, p := range badFrames(d) {
		if err := decodeDataInto(&Record{}, p, d.strs, nil, &deriver{}); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	p := appendData(nil, rec, d, der, true)
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

// FuzzDecodeFrame drives the scan walker's frame decode, v5 and v4 (and
// the refusal of older frames), with corrupt, truncated and mutated
// payloads, asserting walker ≡ reference loop on each. Each
// input is walked twice as a frame — against an empty dictionary and
// against a pre-seeded one — so both the index-out-of-range rejection
// and the in-range dictionary paths stay covered, and the cheap prefix
// readers (framePrefix, peekLayout) see the same bytes the full decode
// does.
// The same bytes are then read as a whole segment file, by the walker
// and by recovery, which steps the same walker over a tail it is about
// to append to; the two must agree on the records of the valid prefix
// recovery keeps (recoveryMatchesScan).
func FuzzDecodeFrame(f *testing.F) {
	rec := fuzzSeedRecord()
	dict := fuzzSeedDict(rec)
	dictFrame := dict.appendDictFrame(nil, 0)
	for _, p := range frameSeeds(f) {
		f.Add(p)
	}
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
	data1 := framed(appendData(nil, &first, live, nil, true))
	known := len(live.strs)
	dict1 := framed(live.appendDictFrame(nil, 0))
	second := *rec
	second.TimeSeconds += 10
	second.Rows = append(slices.Clone(rec.Rows), RecordRow{PID: 300, User: "other", Command: "lbm", N: 1})
	data2 := framed(appendData(nil, &second, live, nil, false))
	dict2 := framed(live.appendDictFrame(nil, known))
	seg := bytes.Join([][]byte{dict1, data1, dict2, data2}, nil)
	if sg, err := recoverWalk(seg); err != nil || sg.n != 2 || sg.size != int64(len(seg)) || len(sg.dict.strs) != len(live.strs) || known == len(live.strs) {
		f.Fatalf("segment seed recovers as %+v (%v), want 2 records over %d bytes and a %d-entry dictionary grown from %d",
			sg, err, len(seg), len(live.strs), known)
	}
	f.Add(seg)

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
		if len(payload) >= 2 && payload[0] >= recordVersionV4 && payload[0] <= RecordVersion && payload[1] == v2KindData {
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
			cols, err := peekLayout(payload, seeded, &deriver{})
			if err != nil {
				t.Fatalf("the full decode accepted a payload peekLayout rejects: %v", err)
			}
			if len(cols) != len(rec.Cols) {
				t.Fatalf("peekLayout saw %d columns, the full decode %d", len(cols), len(rec.Cols))
			}
		}
	})
}

// frameSeeds are FuzzDecodeFrame's one-payload seeds, against the seed
// record's dictionary (fuzzSeedDict).
func frameSeeds(tb testing.TB) [][]byte {
	rec := fuzzSeedRecord()
	dict := fuzzSeedDict(rec)
	dictFrame := dict.appendDictFrame(nil, 0)
	dataFrame := appendData(nil, rec, dict, nil, true)
	// Derived columns: a record that leaves two out, and the headers a
	// reader must refuse.
	derived, der := fuzzDerivedRecord(tb)
	seeds := [][]byte{appendData(nil, derived, dict, der, true)}
	for _, p := range badFrames(dict) {
		seeds = append(seeds, p)
	}
	return append(seeds,
		dictFrame,
		dataFrame,
		// The same record and table as the v4 build wrote them.
		appendV4DictFrame(nil, dict, 0),
		appendV4Data(nil, rec, dict, nil),
		// Frames older than v4: refused, never clipped.
		[]byte(`{"v":1,"time_s":1.5,"rows":[],"machine":{}}`),
		[]byte{0x03, v2KindData, 0x00},
		[]byte{0x02, v2KindDict, 0x00},
		// Truncations and header mutations seed the interesting failure
		// modes directly; the engine mutates from there.
		dataFrame[:len(dataFrame)/2],
		dataFrame[:2],
		dictFrame[:3],
		[]byte{RecordVersion},
		[]byte{RecordVersion, v2KindData},
		[]byte{RecordVersion, 0x7f},
		[]byte{RecordVersion + 1, v2KindData, 0x00}, // future binary version
		[]byte("{"),
		[]byte{},
	)
}

// FuzzTranscodeMatchesDecode holds compaction's frame rewrite to the
// decoder. For any data payload, the rewrite (compactWriter.intern, then
// .data) accepts exactly what decodeDataInto accepts; what it writes
// decodes, under the merged dictionary, to the record the payload
// decodes to, with the same columns and events in force. Each input is
// rewritten alone and behind a derived record's header, so a headerless
// payload meets a derivation and events in force. The output table
// starts with 130 other strings, so every index is remapped and takes
// two bytes. Seeded from FuzzDecodeFrame's corpus.
func FuzzTranscodeMatchesDecode(f *testing.F) {
	rec := fuzzSeedRecord()
	dict := fuzzSeedDict(rec)
	derived, der := fuzzDerivedRecord(f)
	warm := appendData(nil, derived, dict, der, true)
	for _, p := range frameSeeds(f) {
		f.Add(p)
	}
	// Headerless records: one storing every value, one omitting the
	// derived columns, one storing a derivable column, and a truncated and
	// an overlong one.
	f.Add(appendData(nil, rec, dict, nil, false))
	f.Add(appendData(nil, derived, dict, der, false))
	stored := *derived
	stored.Rows = slices.Clone(derived.Rows)
	stored.Rows[1].Values = slices.Clone(stored.Rows[1].Values)
	stored.Rows[1].Values[0]++
	f.Add(appendData(nil, &stored, dict, der, false))
	f.Add(appendData(nil, derived, dict, der, false)[:40])
	f.Add(append(appendData(nil, derived, dict, der, false), 0))
	seeded := slices.Clone(dict.strs)
	var pre []string
	for i := range 130 {
		pre = append(pre, fmt.Sprintf("other-%d", i))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) < 2 || payload[0] < recordVersionV4 || payload[0] > RecordVersion || payload[1] != v2KindData {
			return
		}
		for _, frames := range [][][]byte{{payload}, {warm, payload}} {
			var want Record
			var wantCols []string
			dv := &deriver{}
			var refErr error
			for _, p := range frames {
				if refErr = decodeDataInto(&want, p, seeded, nil, dv); refErr == nil && len(want.Cols) > 0 {
					wantCols = slices.Clone(want.Cols)
				}
			}
			outs, merged, err := transcodeFrames(t, seeded, pre, frames)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("the rewrite returns %v, the decode %v", err, refErr)
			}
			if err != nil {
				continue
			}
			var got Record
			var gotCols []string
			dv = &deriver{}
			for _, p := range outs {
				if err := decodeDataInto(&got, p, merged, nil, dv); err != nil {
					t.Fatalf("the rewritten frame does not decode: %v", err)
				}
				if len(got.Cols) > 0 {
					gotCols = slices.Clone(got.Cols)
				}
			}
			// The writer's float path keeps a time exact to 2^50 ms; past
			// it a re-encoded frame's time rounds, so only acceptance is
			// compared.
			if math.Round(want.TimeSeconds*1000) >= 1<<50 || math.Round(want.ResSeconds*1000) >= 1<<50 {
				continue
			}
			want.Cols, got.Cols = nil, nil
			if !bytes.Equal(recordBytes(&got, gotCols), recordBytes(&want, wantCols)) || !slices.Equal(got.Events, want.Events) {
				t.Fatalf("the rewritten frame decodes as\n%+v (cols %v), want\n%+v (cols %v)", got, gotCols, want, wantCols)
			}
		}
	})
}

// transcodeFrames rewrites frames — the data payloads of one input
// segment, in order, read under table dict — the way compactTier does:
// the dictionary pass, then the rewrite into an output whose table
// starts as pre. It returns each rewritten payload and the output's
// table, and fails the test if the rewrite meets a string the
// dictionary pass did not.
func transcodeFrames(t *testing.T, dict, pre []string, frames [][]byte) ([][]byte, []string, error) {
	sc := getScanner(nil, nil)
	defer sc.release()
	w := &compactWriter{dict: newV2Dict(slices.Clone(pre)), sc: sc}
	begin := func() {
		sc.begin(bytes.NewReader(nil))
		sc.dict = append(sc.dict, dict...)
		w.remap = w.remap[:0]
	}
	begin()
	for _, p := range frames {
		if err := w.intern(p); err != nil {
			return nil, nil, err
		}
	}
	known := len(w.dict.strs)
	begin()
	var out bytes.Buffer
	w.bw = bufio.NewWriter(&out)
	var outs [][]byte
	for _, p := range frames {
		if err := w.data(p, 0); err != nil {
			return nil, nil, err
		}
		if err := w.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, slices.Clone(out.Bytes()[frameHeader:]))
		out.Reset()
	}
	if len(w.dict.strs) != known {
		t.Fatalf("the rewrite interned %v, which the dictionary pass missed", w.dict.strs[known:])
	}
	return outs, w.dict.strs, nil
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
	refErr := refScanStream(bytes.NewReader(seg), -all, all, &cols, &refDecoder{}, func(rec *Record, cols []string) error {
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

// recordBytes renders a decoded record — its events and refresh counts
// included — and the columns in force as bytes, so records compare bit
// for bit (NaN payloads included) and nil-versus-empty slices — fresh
// decode versus reused scratch — do not.
func recordBytes(rec *Record, cols []string) []byte {
	d := newV2Dict(nil)
	b := appendData(nil, rec, d, nil, true)
	for _, r := range rec.Rows {
		b = binenc.AppendUvarint(b, uint64(r.N))
	}
	for _, c := range cols {
		b = append(append(b, 0), c...)
	}
	return d.appendDictFrame(b, 0)
}

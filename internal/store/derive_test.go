package store

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
)

// derivedScreen computes columns c and d from the counts a raw row
// stores, as an engine screen does.
var derivedScreen = &metrics.Screen{Name: "derived", Columns: []*metrics.Column{
	{Name: "c", Expr: metrics.MustCompile("mega(CYCLES)")},
	{Name: "d", Expr: metrics.MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)")},
}}

// engineShaped turns s into the sample an engine over screen makes: it
// names the screen, and every row's values are the screen's expressions
// over the row's counts.
func engineShaped(s *core.Sample, screen *metrics.Screen) *core.Sample {
	s.Screen = screen
	for i := range s.Rows {
		r := &s.Rows[i]
		instr, cycles, misses := r.Basics()
		env := metrics.MapEnv{"INSTRUCTIONS": float64(instr), "CYCLES": float64(cycles), "CACHE_MISSES": float64(misses)}
		r.Values = make([]float64, len(screen.Columns))
		for j, col := range screen.Columns {
			v, err := col.Expr.Eval(env)
			if err != nil {
				panic(err)
			}
			r.Values[j] = v
		}
	}
	return s
}

// fillEngine is fillVaried with engine-shaped samples over derivedScreen.
func fillEngine(t *testing.T, st *Store, start, interval time.Duration, n, tasks int, seed *uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		s := engineShaped(variedSample(start+time.Duration(i)*interval, tasks, seed), derivedScreen)
		if err := st.AppendSample(s); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// rawValues returns every raw-tier row's values, record by record, as a
// full scan decodes them.
func rawValues(t *testing.T, st *Store) [][]float64 {
	t.Helper()
	var out [][]float64
	_, err := st.ScanWith(ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: 1}, func(rec *Record, _ []string) error {
		for i := range rec.Rows {
			out = append(out, append([]float64(nil), rec.Rows[i].Values...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDerivedColumnsRoundTrip: whatever a raw append leaves out, a scan
// reads back bit for bit — values no expression determines (the shape
// of a hand-built or wire-fed sample), values an engine's screen
// computed, and an engine sample one row of which breaks verification,
// whose broken column is then stored for that record alone. Only the
// engine's verified columns are left out.
func TestDerivedColumnsRoundTrip(t *testing.T) {
	seed := uint64(11)
	prefill := func(now time.Duration) *core.Sample {
		// The bench prefill's values: IPC*(c+1)+misses/instr per column.
		s := variedSample(now, 6, &seed)
		for i := range s.Rows {
			r := &s.Rows[i]
			instr, cycles, misses := r.Basics()
			ipc := float64(instr) / float64(cycles)
			for c := range r.Values {
				r.Values[c] = ipc*float64(c+1) + float64(misses)/float64(instr)
			}
		}
		return s
	}
	broken := func(now time.Duration) *core.Sample {
		s := engineShaped(variedSample(now, 6, &seed), derivedScreen)
		s.Rows[3].Values[1] = math.Nextafter(s.Rows[3].Values[1], math.Inf(1))
		return s
	}
	for _, tc := range []struct {
		name     string
		sample   func(time.Duration) *core.Sample
		omitting bool
	}{
		{"not count-determined", prefill, false},
		{"hand-built from counts", func(now time.Duration) *core.Sample {
			s := engineShaped(variedSample(now, 6, &seed), derivedScreen)
			s.Screen = nil // no engine vouches for the values
			return s
		}, false},
		{"engine", func(now time.Duration) *core.Sample { return engineShaped(variedSample(now, 6, &seed), derivedScreen) }, true},
		{"one row breaks verification", broken, true},
		{"screen of other columns", func(now time.Duration) *core.Sample {
			s := engineShaped(variedSample(now, 6, &seed), derivedScreen)
			s.Screen = &metrics.Screen{Columns: []*metrics.Column{derivedScreen.Columns[1], derivedScreen.Columns[0]}}
			return s
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir, Options{Budget: 1 << 30})
			st.SetColumns([]string{"c", "d"})
			var want [][]float64
			for i := 1; i <= 30; i++ {
				s := tc.sample(time.Duration(i) * time.Second)
				for r := range s.Rows {
					want = append(want, append([]float64(nil), s.Rows[r].Values...))
				}
				if err := st.AppendSample(s); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string) {
				t.Helper()
				got := rawValues(t, st)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows read back, want %d", when, len(got), len(want))
				}
				for i := range want {
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("%s: row %d column %d reads %v, want %v", when, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
			check("as appended")
			omitting := 0
			for _, seg := range rawSegments(t, dir) {
				omitting += frameKinds(t, seg).Omitting
			}
			if got := omitting > 0; got != tc.omitting {
				t.Fatalf("%d raw records omit columns; want some: %v", omitting, tc.omitting)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = mustOpen(t, dir, Options{Budget: 1 << 30, SegmentBytes: 512})
			check("reopened")
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rawSegments lists the raw tier's segment files.
func rawSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "raw-*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestDerivedColumnsFollowTheSegment: the derivation in force is the
// segment's, so a record omits columns only after a column header in
// its own segment named their expressions — after a rotation, a
// restart, a screen change, and records nobody vouched for — and a
// scan that starts past that header (a range) still derives them.
func TestDerivedColumnsFollowTheSegment(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Budget: 1 << 30, SegmentBytes: 4 << 10})
	st.SetColumns([]string{"c", "d"})
	seed := uint64(5)
	var want [][]float64
	appendOne := func(s *core.Sample) {
		t.Helper()
		for r := range s.Rows {
			want = append(want, append([]float64(nil), s.Rows[r].Values...))
		}
		if err := st.AppendSample(s); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		now := time.Duration(0) // a restarted monitor's clock starts over
		for i := 0; i < 40; i++ {
			now += time.Second
			screen := derivedScreen
			if round == 1 && i >= 20 {
				// The same column names computed another way.
				screen = &metrics.Screen{Columns: []*metrics.Column{
					{Name: "c", Expr: metrics.MustCompile("ratio(INSTRUCTIONS, CYCLES)")},
					derivedScreen.Columns[1],
				}}
			}
			s := engineShaped(variedSample(now, 5, &seed), screen)
			if i%7 == 3 {
				s.Screen = nil // a record nobody vouched for, mid-segment
			}
			appendOne(s)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = mustOpen(t, dir, Options{Budget: 1 << 30, SegmentBytes: 4 << 10})
		st.SetColumns([]string{"c", "d"})
	}
	got := rawValues(t, st)
	if len(got) != len(want) {
		t.Fatalf("%d rows read back, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("row %d column %d reads %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// A range starting mid-segment, projected and not, 1 and N workers.
	for _, so := range []ScanOptions{
		{QueryOptions: QueryOptions{FromSeconds: 55}, Workers: 1},
		{QueryOptions: QueryOptions{FromSeconds: 55}, Workers: 4},
		{QueryOptions: QueryOptions{FromSeconds: 55}, Workers: 1, Project: true, Columns: []string{"d"}},
	} {
		i := 54 * 5
		_, err := st.ScanWith(so, func(rec *Record, cols []string) error {
			for r := range rec.Rows {
				for j, v := range rec.Rows[r].Values {
					w := want[i][j]
					if so.Project && cols[j] != "d" {
						w = 0
					}
					if math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%+v: row %d column %d reads %v, want %v", so, i, j, v, w)
					}
				}
				i++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("%+v: the range read %d rows, want %d", so, i-54*5, len(want)-54*5)
		}
	}
	omitting, records := 0, 0
	for _, seg := range rawSegments(t, dir) {
		k := frameKinds(t, seg)
		omitting, records = omitting+k.Omitting, records+k.V4
	}
	if omitting == 0 || omitting >= records {
		t.Fatalf("%d of %d raw records omit columns; want most, not all", omitting, records)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDerivationIsPerSegment: a segment's derivation ends with it. A
// walker that read one segment's derived columns refuses the next
// segment's record that leaves columns out before a header of its own
// named their expressions, as it does when that segment is its first.
func TestDerivationIsPerSegment(t *testing.T) {
	rec, der := fuzzDerivedRecord(t)
	segment := func(withHeader bool) []byte {
		d := fuzzSeedDict(rec)
		r := *rec
		if !withHeader {
			r.Cols = nil
		}
		var seg []byte
		for _, p := range [][]byte{d.appendDictFrame(nil, 0), appendData(nil, &r, d, der)} {
			frame := append(beginFrame(nil), p...)
			endFrame(frame)
			seg = append(seg, frame...)
		}
		return seg
	}
	const all = 1<<63 - 1
	walk := func(sc *segScanner, seg []byte) error {
		return sc.scan(bytes.NewReader(seg), -all, all, func() *Record { return &Record{} },
			func(*Record, []string) error { return nil })
	}
	sc := getScanner(nil, nil)
	defer sc.release()
	if err := walk(sc, segment(false)); err == nil {
		t.Fatal("a segment's first walk decoded a record omitting columns no header derives")
	}
	if err := walk(sc, segment(true)); err != nil {
		t.Fatal(err)
	}
	if err := walk(sc, segment(false)); err == nil {
		t.Fatal("a record omitting columns decoded under the previous segment's derivation")
	}
}

package store

import (
	"bytes"
	"cmp"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tiptop/internal/binenc"
	"tiptop/internal/core"
	"tiptop/internal/metrics"
)

// derivedScreen computes columns c and d from the counts a raw row
// stores, as an engine screen does.
var derivedScreen = &metrics.Screen{Name: "derived", Columns: []*metrics.Column{
	{Name: "c", Expr: metrics.MustCompile("mega(CYCLES)")},
	{Name: "d", Expr: metrics.MustCompile("per100(CACHE_MISSES, INSTRUCTIONS)")},
}}

// engineShaped turns s into the sample an engine over screen makes, its
// attach read behind it: it names the screen, every row spans a
// refresh interval, and every row's values are the screen's expressions
// over the row's counts and CPU%.
func engineShaped(s *core.Sample, screen *metrics.Screen) *core.Sample {
	s.Screen = screen
	for i := range s.Rows {
		r := &s.Rows[i]
		r.Interval = time.Second
		env := metrics.MapEnv{metrics.VarCPUPct: r.CPUPct, metrics.VarSamplePct: 100 * r.Coverage}
		for name, c := range r.Events {
			env[name] = float64(c)
		}
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

// wideSample is a refresh of the wide screen's twelve events: varied
// counts, CPU% and coverage.
func wideSample(now time.Duration, tasks int, seed *uint64) *core.Sample {
	next := func() float64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return float64(*seed>>11) / float64(1<<53)
	}
	var events []string
	for _, col := range metrics.WideScreen().Columns {
		for _, id := range col.Expr.Reads() {
			if !metrics.IsContextVar(id) && !slices.Contains(events, id) {
				events = append(events, id)
			}
		}
	}
	table := core.NewEventTable(events...)
	s := variedSample(now, tasks, seed)
	for i := range s.Rows {
		r := &s.Rows[i]
		r.Counts, r.Table, r.Coverage = make([]uint64, len(events)), table, 0.2+0.8*next()
		for e := range r.Counts {
			r.Counts[e] = uint64(1e6 * next())
		}
	}
	return s
}

// omitMasks ORs together the omission masks of a segment's data frames.
func omitMasks(t *testing.T, path string) (masks uint64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := getScanner(nil, nil)
	defer sc.release()
	sc.begin(f)
	for {
		p, _, err := sc.frame()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			return masks
		}
		r := binenc.NewReader(p[2:])
		r.Uvarint() // time
		_, _, omit, err := readHeader(r, p, r.Uvarint() == 0, sc.dict, nil, &sc.dv)
		if err != nil {
			t.Fatal(err)
		}
		masks |= omit
	}
}

// TestDerivedColumnsRoundTrip: whatever a raw append leaves out, a scan
// reads back bit for bit — values no expression determines (the shape
// of a hand-built or wire-fed sample), values an engine's screen
// computed, over the default three events or the wide screen's twelve,
// and an engine sample one row of which breaks verification, whose
// broken column is then stored for that record alone. Only the engine's
// verified columns are left out: a column reading what a row does not
// store, the wide screen's %SMPL, never is.
func TestDerivedColumnsRoundTrip(t *testing.T) {
	seed := uint64(11)
	prefill := func(now time.Duration) *core.Sample {
		// The bench prefill's values: IPC*(c+1)+misses/instr per column.
		s := variedSample(now, 6, &seed)
		for i := range s.Rows {
			r := &s.Rows[i]
			instr, cycles, misses := r.Basics()
			ipc := float64(instr) / float64(cycles)
			r.Interval = time.Second
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
	wide := metrics.WideScreen()
	for _, tc := range []struct {
		name     string
		sample   func(time.Duration) *core.Sample
		omitting bool
		screen   *metrics.Screen // whose columns the store names; derivedScreen's when nil
	}{
		{"not count-determined", prefill, false, nil},
		{"hand-built from counts", func(now time.Duration) *core.Sample {
			s := engineShaped(variedSample(now, 6, &seed), derivedScreen)
			s.Screen = nil // no engine vouches for the values
			return s
		}, false, nil},
		{"engine", func(now time.Duration) *core.Sample { return engineShaped(variedSample(now, 6, &seed), derivedScreen) }, true, nil},
		{"one row breaks verification", broken, true, nil},
		{"screen of other columns", func(now time.Duration) *core.Sample {
			s := engineShaped(variedSample(now, 6, &seed), derivedScreen)
			s.Screen = &metrics.Screen{Columns: []*metrics.Column{derivedScreen.Columns[1], derivedScreen.Columns[0]}}
			return s
		}, false, nil},
		{"wide", func(now time.Duration) *core.Sample { return engineShaped(wideSample(now, 6, &seed), wide) }, true, wide},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir, Options{Budget: 1 << 30})
			screen := cmp.Or(tc.screen, derivedScreen)
			var cols []string
			for _, c := range screen.Columns {
				cols = append(cols, c.Name)
			}
			st.SetColumns(cols)
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
			if tc.screen == wide {
				var masks uint64
				for _, seg := range rawSegments(t, dir) {
					masks |= omitMasks(t, seg)
				}
				smpl := slices.Index(cols, "smpl")
				if want := uint64(1)<<smpl - 1; masks != want {
					t.Fatalf("the wide screen's records omit columns %b, want every one but smpl (%b)", masks, want)
				}
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
		omitting, records = omitting+k.Omitting, records+k.V5
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
		for _, p := range [][]byte{d.appendDictFrame(nil, 0), appendData(nil, &r, d, der, withHeader)} {
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

// TestDerivedColumnReadsCPU: a column over CPU% is derived too, and a
// scan projected on it alone — not asking for CPU% — reads it as a full
// decode does, at the raw tier and the 10s tier.
func TestDerivedColumnReadsCPU(t *testing.T) {
	screen := &metrics.Screen{Columns: []*metrics.Column{{Name: "cpc", Expr: metrics.MustCompile("ratio(CYCLES, CPU_PCT)")}}}
	st := mustOpen(t, t.TempDir(), Options{})
	defer st.Close()
	st.SetColumns([]string{"cpc"})
	seed := uint64(9)
	for i := 1; i <= 25; i++ {
		if err := st.AppendSample(engineShaped(variedSample(time.Duration(i)*time.Second, 4, &seed), screen)); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []float64{0, 10} {
		var full, projected []float64
		for _, opt := range []ScanOptions{{}, {Project: true, Columns: []string{"cpc"}}} {
			opt.QueryOptions, opt.Workers = QueryOptions{PID: -1, StepSeconds: step}, 1
			out := &full
			if opt.Project {
				out = &projected
			}
			if _, err := st.ScanWith(opt, func(rec *Record, _ []string) error {
				for _, r := range rec.Rows {
					*out = append(*out, r.Values[0])
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(full) == 0 || !slices.Equal(full, projected) || slices.Contains(full, 0) {
			t.Fatalf("step %g: the projected scan reads %v, the full one %v", step, projected, full)
		}
	}
	if k := frameKinds(t, rawSegments(t, st.Dir())[0]); k.Omitting == 0 {
		t.Fatal("no raw record leaves the CPU% column out")
	}
}

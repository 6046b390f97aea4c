package query

// Screen changes inside a query range: values fold under their column's
// name, so an expression reads the column it names on both sides of the
// change — projected or fully decoded, on one worker or several.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/store"
)

// colValue is the constant every row records under a column name: means
// of it are exact, whichever rows contribute.
func colValue(name string) float64 { return float64(name[0]-'a') + 1 }

// layoutStore writes one refresh per second, two tasks each, under
// layouts[i] during phase i; a phase lasts until ends[i] (inclusive).
// Segments are tiny so a scan crosses several files; downsampling is on,
// as in every command, so steps of 10 and 60 read the folded tiers.
func layoutStore(t *testing.T, layouts [][]string, ends []int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	now := 1
	for i, cols := range layouts {
		st.SetColumns(cols)
		vals := make([]float64, len(cols))
		for j, name := range cols {
			vals[j] = colValue(name)
		}
		for ; now <= ends[i]; now++ {
			s := &core.Sample{Time: time.Duration(now) * time.Second}
			for pid := 100; pid < 102; pid++ {
				s.Rows = append(s.Rows, core.Row{
					Info:   core.TaskInfo{ID: hpm.TaskID{PID: pid, TID: pid}, User: "u", Comm: "job", State: "R"},
					Values: vals, Counts: []uint64{2000, 1000, 1}, Table: table, Valid: true,
				})
			}
			if err := st.AppendSample(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// queryEveryWay runs one expression projected and fully decoded, on one
// worker and on four, and requires the four results to be identical.
func queryEveryWay(t *testing.T, st *store.Store, c *Compiled, step float64) *Result {
	t.Helper()
	var first *Result
	for _, opt := range []Options{
		{StepSeconds: step, Workers: 1},
		{StepSeconds: step, Workers: 4},
		{StepSeconds: step, Workers: 1, FullDecode: true},
		{StepSeconds: step, Workers: 4, FullDecode: true},
	} {
		res, err := QueryStore(st, c, opt)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.Source, opt, err)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("%s %+v differs from the projected serial result:\n%+v\n%+v", c.Source, opt, res, first)
		}
	}
	return first
}

// TestScreenChangeFoldsByName is the regression test for positional
// folding: under [a, b] then [b, a] with a ≡ 1 and b ≡ 2, `a` used to
// answer 0 (projected) or 2 (full decode) before the change. The second
// case is the write side's: the 10s and 1m tier buckets open at the
// change (t = 75, inside (70, 80] and (60, 120]) used to average both
// layouts into one vector, so both columns read 1.5 there; the store
// now flushes partial buckets under the names they were folded with.
func TestScreenChangeFoldsByName(t *testing.T) {
	for _, tc := range []struct {
		ends   []int
		points map[float64]int // step → points per series
	}{
		// Raw tier; step 4's bucket (4, 8] straddles the change after t = 6.
		{[]int{6, 12}, map[float64]int{0: 12, 4: 3}},
		// The tiers' completed buckets: 10s to t = 190, 1m to t = 180.
		{[]int{75, 200}, map[float64]int{10: 19, 60: 3}},
	} {
		st := layoutStore(t, [][]string{{"a", "b"}, {"b", "a"}}, tc.ends)
		for _, name := range []string{"a", "b"} {
			c := mustCompile(t, name, "a", "b")
			for step, want := range tc.points {
				res := queryEveryWay(t, st, c, step)
				if len(res.Series) != 3 {
					t.Fatalf("%s step %v: %d series, want total + 2 tasks", name, step, len(res.Series))
				}
				for _, s := range res.Series {
					if len(s.Points) != want {
						t.Fatalf("%s step %v: series %q has %d points, want %d", name, step, s.Key, len(s.Points), want)
					}
					for _, p := range s.Points {
						if p.Value != colValue(name) {
							t.Fatalf("%s step %v: series %q at %vs = %v, want %v",
								name, step, s.Key, p.TimeSeconds, p.Value, colValue(name))
						}
					}
				}
			}
		}
	}
}

// TestRawQueryFoldsByName is the raw form's screen-change regression
// test: three refreshes under [ipc], three under [dmis], every value 100.
// The store's positional fold labelled the range [dmis] and all six
// points [100] — the first three were ipc.
func TestRawQueryFoldsByName(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, cols := range [][]string{{"ipc"}, {"dmis"}} {
		st.SetColumns(cols)
		for j := 1; j <= 3; j++ {
			if err := st.AppendSample(sampleAt(time.Duration(3*i+j)*time.Second, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	type point struct {
		t      float64
		values []float64
	}
	for _, tc := range []struct {
		opt    Options
		cols   []string
		points []point
	}{
		{Options{}, []string{"ipc", "dmis"}, []point{
			{1, []float64{100, 0}}, {2, []float64{100, 0}}, {3, []float64{100, 0}},
			{4, []float64{0, 100}}, {5, []float64{0, 100}}, {6, []float64{0, 100}}}},
		{Options{StepSeconds: 5}, []string{"ipc", "dmis"}, []point{{5, []float64{100, 100}}, {10, []float64{0, 100}}}},
		{Options{ToSeconds: 3}, []string{"ipc"}, []point{{1, []float64{100}}, {2, []float64{100}}, {3, []float64{100}}}},
		{Options{FromSeconds: 4}, []string{"dmis"}, []point{{4, []float64{100}}, {5, []float64{100}}, {6, []float64{100}}}},
	} {
		res, err := RunRaw(st, 100, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		var got []point
		for _, s := range res.Series {
			for _, p := range s.Points {
				got = append(got, point{p.TimeSeconds, p.Values})
			}
		}
		if !slices.Equal(res.Columns, tc.cols) || len(res.Series) != 1 || !reflect.DeepEqual(got, tc.points) {
			t.Errorf("%+v: columns %v, %d series, points %v; want %v and %v", tc.opt, res.Columns, len(res.Series), got, tc.cols, tc.points)
		}
	}
}

// TestRandomLayoutsProjectedEqualsFull: over random column layouts and
// change points, projection and worker count never change the result,
// and a column reads its own value wherever some row in the bucket
// carried it (0 where none did).
func TestRandomLayoutsProjectedEqualsFull(t *testing.T) {
	pool := []string{"a", "b", "c", "d"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var layouts [][]string
		var ends []int
		end := 0
		for phase := 0; phase < 2+rng.Intn(3); phase++ {
			cols := slices.Clone(pool)
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			layouts = append(layouts, cols[:1+rng.Intn(len(cols))])
			end += 1 + rng.Intn(9)
			ends = append(ends, end)
		}
		carried := func(name string, from, to int) bool { // some refresh in (from, to] carried name
			start := 0
			for i, cols := range layouts {
				if max(start, from) < min(ends[i], to) && slices.Contains(cols, name) {
					return true
				}
				start = ends[i]
			}
			return false
		}
		st := layoutStore(t, layouts, ends)
		for _, name := range pool {
			c := mustCompile(t, name, pool...)
			// Pointwise rows remap too (a point lacking the column reads 0).
			over := mustCompile(t, "max_over_time("+name+") - avg_over_time("+name+")", pool...)
			for _, step := range []int{0, 3, 7} {
				label := fmt.Sprintf("seed %d %v/%v: %s step %d", seed, layouts, ends, name, step)
				queryEveryWay(t, st, over, float64(step))
				for _, s := range queryEveryWay(t, st, c, float64(step)).Series {
					for _, p := range s.Points {
						to := int(p.TimeSeconds)
						want := 0.0
						if carried(name, to-max(step, 1), to) {
							want = colValue(name)
						}
						if p.Value != want {
							t.Fatalf("%s: series %q at %vs = %v, want %v", label, s.Key, p.TimeSeconds, p.Value, want)
						}
					}
				}
			}
		}
	}
}

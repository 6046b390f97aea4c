package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tiptop/internal/store"
)

// pushed is one Push: a record and the columns labelling its values.
type pushed struct {
	rec  store.Record
	cols []string
}

// foldStream generates n records of a churning task set, one per second
// from start: every task of a pool of 12 is present with probability
// 0.8, so rows shift position from record to record, and the screen
// changes from [a b] to [b a c] halfway — its events from INSTRUCTIONS,
// CYCLES, CACHE_MISSES to CYCLES, b, INSTRUCTIONS, a column's name read
// as the event's. Every fourth record of a tiered stream is stamped as
// a 10s tier record.
func foldStream(rng *rand.Rand, n int, start float64, tiered bool) []pushed {
	out := make([]pushed, n)
	for i := range out {
		p := &out[i]
		p.cols = []string{"a", "b"}
		p.rec.Events = []string{"INSTRUCTIONS", "CYCLES", "CACHE_MISSES"}
		if i >= n/2 {
			p.cols = []string{"b", "a", "c"}
			p.rec.Events = []string{"CYCLES", "b", "INSTRUCTIONS"}
		}
		p.rec.TimeSeconds = start + float64(i+1)
		if tiered && i%4 == 0 {
			p.rec.ResSeconds = 10
		}
		for k := 0; k < 12; k++ {
			if rng.Float64() > 0.8 {
				continue
			}
			row := store.RecordRow{
				PID: 100 + k/2, TID: 100 + k, User: fmt.Sprint("u", k%3), Command: fmt.Sprint("c", k%4),
				CPUPct: 100 * rng.Float64(), Counts: []uint64{uint64(rng.Intn(1e6)), uint64(rng.Intn(1e6)), uint64(rng.Intn(1e3))},
			}
			for range p.cols[:len(p.cols)-rng.Intn(2)] { // a row may carry fewer values than columns
				row.Values = append(row.Values, rng.NormFloat64())
			}
			p.rec.Rows = append(p.rec.Rows, row)
		}
	}
	return out
}

var foldExprs = []string{
	"delta(INSTRUCTIONS) / delta(CYCLES)",
	"rate(CYCLES) by user",
	"topk(2, a) by command",
	"avg_over_time(a)",
	"max_over_time(b) by user",
	"sum_over_time(CPU_PCT) by agent",
	"topk(3, avg_over_time(a + c))",
	"DELTA_NS + c",
	"delta(CACHE_MISSES) + b",
}

// folder is what the engine and its reference share.
type folder[E any] interface {
	Push(rec *store.Record, cols []string)
	SetResolution(float64)
	Merge(E)
	Finish() *Result
}

// foldAll pushes every source's stream into an engine of its own, merges
// them in order and finishes.
func foldAll[E folder[E]](mk func(agent string) E, sources [][]pushed) *Result {
	var first E
	for i, src := range sources {
		eng := mk(fmt.Sprint("agent", i))
		for j := range src {
			eng.Push(&src[j].rec, src[j].cols)
		}
		eng.SetResolution(float64(10 * i))
		if i == 0 {
			first = eng
		} else {
			first.Merge(eng)
		}
	}
	return first.Finish()
}

// TestFoldMatchesReference holds the ordered, positional fold to the
// map-based one it replaced (reffold_test.go), exactly: in-order streams,
// shuffled ones, duplicate times, a screen change and churning row
// positions mid-range, grouped, ranked and pointwise expressions, at the
// serving resolution and on 10s and 60s steps, solo and as a three-source
// merge whose sources start 0, 3 and 17 seconds in.
func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	inOrder := foldStream(rng, 90, 0, true)
	shuffled := foldStream(rng, 90, 0, false)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dups := foldStream(rng, 75, 0, true)
	dups = append(dups, dups[10:30]...) // 20 instants pushed twice, the second time late
	var empty []pushed
	shapes := map[string][][]pushed{
		"in order":     {inOrder},
		"out of order": {shuffled},
		"duplicates":   {dups},
		"merge":        {foldStream(rng, 70, 0, false), foldStream(rng, 45, 3, true), foldStream(rng, 80, 17, false)},
		"merge mixed":  {empty, shuffled, inOrder, dups},
	}
	for shape, sources := range shapes {
		for _, expr := range foldExprs {
			c := mustCompile(t, expr, "a", "b", "c")
			for _, step := range []float64{0, 10, 60} {
				opt := Options{StepSeconds: step}
				got := foldAll(func(agent string) *Engine { return NewEngine(c, agent, opt) }, sources)
				want := foldAll(func(agent string) *refEngine { return newRefEngine(c, agent, opt) }, sources)
				if len(want.Series) < 2 || len(want.Series[0].Points) < 2 {
					t.Fatalf("%s, %q step %g: the reference folded next to nothing: %+v", shape, expr, step, want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %q step %g: the engine's fold differs from the reference\n got  %s\n want %s",
						shape, expr, step, got.AppendJSON(nil), want.AppendJSON(nil))
				}
				if !bytes.Equal(got.AppendJSON(nil), want.AppendJSON(nil)) {
					t.Errorf("%s, %q step %g: bodies differ", shape, expr, step)
				}
			}
		}
	}
}

// TestEngineFoldAllocs bounds a long, narrow stream: folding R = 1000
// records × N = 50 rows allocates per slab chunk, not per series, row or
// bucket — at the serving resolution (a bucket per record and series,
// the worst case), on a step, and with the point rows a pointwise
// expression keeps. What a fold pays to start amortises to nothing over
// 1000 records; TestDashboardQueryAllocs holds the other shape, three
// records of 2000 rows, where the start is all there is.
func TestEngineFoldAllocs(t *testing.T) {
	const records, rows = 1000, 50
	stream := make([]pushed, records)
	for i := range stream {
		rec := &stream[i].rec
		rec.TimeSeconds = float64(i + 1)
		rec.Events = []string{"INSTRUCTIONS", "CYCLES", "CACHE_MISSES"}
		for k := 0; k < rows; k++ {
			rec.Rows = append(rec.Rows, store.RecordRow{
				PID: 100 + k, TID: 100 + k, User: fmt.Sprint("u", k%3), Command: "job",
				CPUPct: 50, Counts: []uint64{2000, 1000, 10}, Values: []float64{1.5, float64(k)},
			})
		}
	}
	cols := []string{"a", "b"}
	for _, tc := range []struct {
		expr string
		step float64
	}{
		{"delta(INSTRUCTIONS) / delta(CYCLES)", 0},
		{"a / b by user", 60},
		{"avg_over_time(a)", 0},
		{"max_over_time(b)", 60},
	} {
		c := mustCompile(t, tc.expr, cols...)
		allocs := testing.AllocsPerRun(3, func() {
			eng := NewEngine(c, "", Options{StepSeconds: tc.step})
			for i := range stream {
				eng.Push(&stream[i].rec, cols)
			}
		})
		if perRow := allocs / (records * rows); perRow > 0.1 {
			t.Errorf("%q step %g: %.0f allocs folding %d records × %d rows = %.3f per row, want <= 0.1",
				tc.expr, tc.step, allocs, records, rows, perRow)
		} else {
			t.Logf("%q step %g: %.0f allocs, %.4f per folded row", tc.expr, tc.step, allocs, perRow)
		}
	}
}

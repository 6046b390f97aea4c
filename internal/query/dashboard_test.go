package query

// The allocation budget in the shape a dashboard asks: few records, each
// thousands of rows wide. TestEngineFoldAllocs and the store's
// TestScanAllocsPerRecord bound the opposite shape — long narrow streams,
// where start-up amortises to nothing — so a query that decodes three
// 2000-row records reaches neither. Here the start-up is the whole cost.

import (
	"fmt"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/store"
)

// dashboardStore seeds a store with refreshes of a wide, stable node at
// a 2 s cadence: every task present in every record, two value columns.
func dashboardStore(tb testing.TB, tasks, refreshes int) *store.Store {
	tb.Helper()
	st, err := store.Open(tb.TempDir(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	st.SetColumns([]string{"ipc", "dmis"})
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	s := &core.Sample{Rows: make([]core.Row, tasks)}
	for i := range s.Rows {
		s.Rows[i] = core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: 100 + i, TID: 100 + i},
				User: fmt.Sprint("u", i%7), Comm: fmt.Sprint("job", i%40), State: "R",
			},
			CPUPct: 50, Values: make([]float64, 2), Counts: make([]uint64, 3),
			Table: table, Valid: true,
		}
	}
	for r := 1; r <= refreshes; r++ {
		s.Time = time.Duration(r) * 2 * time.Second
		for i := range s.Rows {
			row := &s.Rows[i]
			row.Counts[0], row.Counts[1], row.Counts[2] = uint64(1000*(i+r)), uint64(500*(i+1)), uint64(i%13)
			row.Values[0], row.Values[1] = float64(i+r)/float64(i+1), float64(i%13)/100
		}
		if err := st.AppendSample(s); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// dashboardShapes are the ranges a dashboard asks a store of 100
// refreshes (2 s … 200 s) for; records bounds how many each decodes.
var dashboardShapes = []struct {
	name    string
	opt     Options
	records int
}{
	{"3 records raw", Options{FromSeconds: 195.5, ToSeconds: 200}, 3},
	{"narrow window step 10", Options{FromSeconds: 150, ToSeconds: 200, StepSeconds: 10}, 6},
	{"whole range step 60", Options{StepSeconds: 60}, 4},
	{"whole range raw", Options{}, 100},
}

// TestDashboardQueryAllocs: a query over records of 2000 rows allocates
// per slab chunk, per scratch record and per file — a quarter of an
// allocation per series and a fixed 200 — whether it decodes 6000 rows or
// all 200 000. The scan pool decodes ahead of the merge, so it adds the
// scratch it holds in flight: three allocations a record (the record,
// its rows, its values block), never anything per row.
func TestDashboardQueryAllocs(t *testing.T) {
	const tasks, refreshes = 2000, 100
	st := dashboardStore(t, tasks, refreshes)
	for _, expr := range []string{"delta(INSTRUCTIONS) / delta(CYCLES)", "dmis"} {
		c := mustCompile(t, expr, "ipc", "dmis")
		for _, shape := range dashboardShapes {
			for _, workers := range []int{1, 4} {
				opt := shape.opt
				opt.Workers = workers
				budget := 0.25*(tasks+1) + 200
				if workers > 1 {
					budget += 3 * float64(shape.records)
				}
				var res *Result
				allocs := testing.AllocsPerRun(3, func() {
					var err error
					if res, err = QueryStore(st, c, opt); err != nil {
						t.Fatal(err)
					}
				})
				if len(res.Series) != tasks+1 || len(res.Series[1].Points) == 0 {
					t.Fatalf("%q, %s: %d series, want %d with points", expr, shape.name, len(res.Series), tasks+1)
				}
				if allocs > budget {
					t.Errorf("%q, %s, %d workers: %.0f allocations for %d series × %d points, want <= %.0f",
						expr, shape.name, workers, allocs, len(res.Series), len(res.Series[1].Points), budget)
				} else {
					t.Logf("%q, %s, %d workers: %.0f allocations (%d points a series)",
						expr, shape.name, workers, allocs, len(res.Series[1].Points))
				}
			}
		}
	}
}

// BenchmarkDashboardQuery2000 is one range query of a 2000-task node's
// store in each dashboard shape; TestDashboardQueryAllocs holds the
// allocation column.
func BenchmarkDashboardQuery2000(b *testing.B) {
	st := dashboardStore(b, 2000, 100)
	c, err := Compile("delta(INSTRUCTIONS) / delta(CYCLES)", KnownNames([]string{"ipc", "dmis"}))
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range dashboardShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := QueryStore(st, c, shape.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

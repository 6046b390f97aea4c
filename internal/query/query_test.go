package query

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/store"
)

// sampleAt builds one engine refresh with `tasks` synthetic tasks:
// instr = 1000·pid, cycles = 500·pid (IPC 2), misses = pid, one value
// column holding the pid. Task users alternate u0/u1.
func sampleAt(now time.Duration, tasks int) *core.Sample {
	s := &core.Sample{Time: now}
	for i := 0; i < tasks; i++ {
		pid := 100 + i
		user := "u0"
		if i%2 == 1 {
			user = "u1"
		}
		s.Rows = append(s.Rows, core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: pid, TID: pid},
				User: user, Comm: "job", State: "R",
			},
			CPUPct: 50,
			Values: []float64{float64(pid)},
			Counts: []uint64{uint64(1000 * pid), uint64(500 * pid), uint64(pid)},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses),
			Valid:  true,
		})
	}
	return s
}

func seedStore(t *testing.T, tasks, refreshes int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.SetColumns([]string{"pidcol"})
	for i := 1; i <= refreshes; i++ {
		if err := st.AppendSample(sampleAt(time.Duration(i)*2*time.Second, tasks)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func mustCompile(t *testing.T, src string, cols ...string) *Compiled {
	t.Helper()
	c, err := Compile(src, KnownNames(cols))
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return c
}

func TestQueryStoreIPC(t *testing.T) {
	st := seedStore(t, 3, 60) // refreshes at 2s..120s
	c := mustCompile(t, "delta(INSTRUCTIONS) / delta(CYCLES)")
	res, err := QueryStore(st, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	// 3 tasks + total.
	if len(res.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(res.Series))
	}
	if !res.Series[0].Total || res.Series[0].Key != "total" {
		t.Fatalf("first series = %+v, want the total roll-up", res.Series[0])
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %q has no points", s.Key)
		}
		for _, p := range s.Points {
			// Synthetic counters have IPC exactly 2 everywhere, so any
			// Σinstr/Σcycles recomputation must too.
			if math.Abs(p.Value-2) > 1e-12 {
				t.Fatalf("series %q at %gs = %v, want 2", s.Key, p.TimeSeconds, p.Value)
			}
		}
	}
	if res.ResolutionSeconds != 60 {
		t.Fatalf("resolution = %g, want the 1m tier", res.ResolutionSeconds)
	}
}

func TestQueryStoreColumnsAndRate(t *testing.T) {
	st := seedStore(t, 2, 60)
	// The value column holds the pid; bucket averages preserve it.
	c := mustCompile(t, "pidcol", "pidcol")
	res, err := QueryStore(st, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Total {
			continue
		}
		want := float64(s.PID)
		for _, p := range s.Points {
			if math.Abs(p.Value-want) > 1e-9 {
				t.Fatalf("series %q at %gs = %v, want %v", s.Key, p.TimeSeconds, p.Value, want)
			}
		}
	}
	// rate over a full 60s bucket: per task 30 refreshes × 1000·pid
	// instructions per 60s = 500·pid per second.
	c = mustCompile(t, "rate(INSTRUCTIONS)")
	res, err = QueryStore(st, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Total || len(s.Points) < 2 {
			continue
		}
		// Interior buckets are fully covered (the last may be partial).
		p := s.Points[0]
		want := 500 * float64(s.PID)
		if math.Abs(p.Value-want) > want*0.05 {
			t.Fatalf("rate series %q at %gs = %v, want ≈%v", s.Key, p.TimeSeconds, p.Value, want)
		}
	}
}

func TestQueryGroupBy(t *testing.T) {
	// pids 100..103, users u0 (100,102) and u1 (101,103). 63 refreshes
	// reach past the 60s tier boundary so the first two 1m buckets are
	// flushed (a downsampled bucket closes only when a later sample
	// lands beyond its end).
	st := seedStore(t, 4, 63)
	c := mustCompile(t, "delta(INSTRUCTIONS) by user")
	res, err := QueryStore(st, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupBy != "user" {
		t.Fatalf("GroupBy = %q", res.GroupBy)
	}
	byKey := map[string]Series{}
	for _, s := range res.Series {
		byKey[s.Key] = s
	}
	if len(byKey) != 3 { // total, u0, u1
		t.Fatalf("series keys = %v, want total/u0/u1", keys(byKey))
	}
	// Per 60s bucket each task contributes 30 refreshes × 1000·pid.
	wantU0 := 30.0 * 1000 * (100 + 102)
	wantU1 := 30.0 * 1000 * (101 + 103)
	if got := byKey["u0"].Points[0].Value; math.Abs(got-wantU0) > 1e-6 {
		t.Fatalf("u0 bucket = %v, want %v", got, wantU0)
	}
	if got := byKey["u1"].Points[0].Value; math.Abs(got-wantU1) > 1e-6 {
		t.Fatalf("u1 bucket = %v, want %v", got, wantU1)
	}
	if got := byKey["total"].Points[0].Value; math.Abs(got-(wantU0+wantU1)) > 1e-6 {
		t.Fatalf("total bucket = %v, want %v", got, wantU0+wantU1)
	}
}

func keys(m map[string]Series) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestQueryTopK(t *testing.T) {
	st := seedStore(t, 4, 63)
	c := mustCompile(t, "topk(2, delta(INSTRUCTIONS))")
	res, err := QueryStore(st, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	// total + the 2 highest-instruction tasks (largest pids).
	if len(res.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(res.Series))
	}
	gotPIDs := map[int]bool{}
	for _, s := range res.Series {
		if !s.Total {
			gotPIDs[s.PID] = true
		}
	}
	if !gotPIDs[102] || !gotPIDs[103] {
		t.Fatalf("topk kept %v, want pids 102 and 103", gotPIDs)
	}
}

// TestTopKBoundedBySeries: k is a literal from the request and ranks at
// most the series there are — every k at or past that count keeps them
// all, and no k sizes anything (topk(1e9, …) once asked the runtime for a
// billion-entry map, per request).
func TestTopKBoundedBySeries(t *testing.T) {
	mk := func() []Series {
		return []Series{{Key: "total", Total: true}, {Key: "a", PID: 1, Mean: 2}, {Key: "b", PID: 2, Mean: 3}, {Key: "c", PID: 3, Mean: 1}}
	}
	keys := func(ss []Series) string {
		var out []string
		for _, s := range ss {
			out = append(out, s.Key)
		}
		return strings.Join(out, " ")
	}
	for k, want := range map[int]string{1: "total b", 2: "total a b", 3: "total a b c", 4: "total a b c", 1 << 40: "total a b c"} {
		if got := keys(applyTopK(mk(), k)); got != want {
			t.Errorf("topk(%d) keeps %q, want %q", k, got, want)
		}
	}
	ss := mk()
	if allocs := testing.AllocsPerRun(5, func() { applyTopK(ss, 1<<40) }); allocs > 8 {
		t.Errorf("topk(1<<40) over three series made %.0f allocations, want a handful", allocs)
	}
}

func TestQueryOverTime(t *testing.T) {
	st := seedStore(t, 1, 60)
	// The pid column is constant, so min/max/avg over any bucket agree.
	for _, src := range []string{"min_over_time(pidcol)", "max_over_time(pidcol)", "avg_over_time(pidcol)"} {
		c := mustCompile(t, src, "pidcol")
		res, err := QueryStore(st, c, Options{StepSeconds: 60})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Series {
			if s.Total {
				continue
			}
			for _, p := range s.Points {
				if math.Abs(p.Value-100) > 1e-9 {
					t.Fatalf("%s series %q = %v, want 100", src, s.Key, p.Value)
				}
			}
		}
	}
}

// seedMem observes the same synthetic refreshes into an in-memory
// store holding them all, as a store-less recorder's tee feeds its own.
func seedMem(t *testing.T, tasks, refreshes int) *store.Store {
	t.Helper()
	st, err := store.OpenMem(refreshes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.SetColumns([]string{"pidcol"})
	for i := 1; i <= refreshes; i++ {
		st.Observe(sampleAt(time.Duration(i)*2*time.Second, tasks))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLiveMatchesStore is the cross-backend agreement check: the same
// refreshes observed into the in-memory store a store-less recorder
// keeps its live history in and appended to a durable store evaluate
// to identical expression series — exactly, since both are one store
// behind one scan-and-fold. At step 0 both serve raw records, at step
// 10 their 10s tier, whose sums and means of this data are exact in
// floating point, its pending last bucket included.
func TestLiveMatchesStore(t *testing.T) {
	st := seedStore(t, 3, 50)
	live := seedMem(t, 3, 50)
	for _, src := range []string{
		"delta(INSTRUCTIONS) / delta(CYCLES)",
		"delta(CACHE_MISSES)",
		"pidcol",
		"rate(CYCLES)",
		"max_over_time(rate(INSTRUCTIONS)) + avg_over_time(pidcol)",
		"topk(1, rate(CYCLES)) by user",
	} {
		c := mustCompile(t, src, "pidcol")
		for _, opt := range []Options{{}, {ToSeconds: 90}, {StepSeconds: 10}, {StepSeconds: 10, FromSeconds: 21, ToSeconds: 70}} {
			sres, err := QueryStore(st, c, opt)
			if err != nil {
				t.Fatal(err)
			}
			hres, err := Run(map[string]Source{"": live}, c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sres.Series) == 0 || len(sres.Series[0].Points) == 0 {
				t.Fatalf("%s %+v: the store evaluated nothing", src, opt)
			}
			if !reflect.DeepEqual(sres, hres) {
				t.Fatalf("%s %+v: store and live differ:\n%+v\n%+v", src, opt, sres, hres)
			}
		}
	}
}

// TestRawLiveMatchesStore is TestLiveMatchesStore's raw twin: the raw
// plan over the live in-memory store and over the durable one agrees on
// series, machine roll-up, columns, resolution and step, exactly.
func TestRawLiveMatchesStore(t *testing.T) {
	st := seedStore(t, 3, 50)
	live := seedMem(t, 3, 50)
	for _, pid := range []int{-1, 101} {
		for _, step := range []float64{0, 10} {
			opt := Options{StepSeconds: step}
			sres, err := RunRaw(st, pid, opt)
			if err != nil {
				t.Fatal(err)
			}
			hres, err := RunRaw(live, pid, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sres.Series) == 0 || len(sres.Series[0].Points) == 0 || len(sres.Machine) == 0 {
				t.Fatalf("pid %d step %v: the store answered nothing", pid, step)
			}
			if !reflect.DeepEqual(sres, hres) {
				t.Fatalf("pid %d step %v: store and live differ:\n%+v\n%+v", pid, step, sres, hres)
			}
		}
	}
}

func TestQueryFleetMerge(t *testing.T) {
	stores := map[string]Source{
		"a:1": seedStore(t, 2, 63),
		"b:2": seedStore(t, 2, 63),
	}
	c := mustCompile(t, "delta(INSTRUCTIONS)")
	res, err := Run(stores, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	// total + 2 tasks × 2 agents.
	if len(res.Series) != 5 {
		t.Fatalf("got %d series, want 5", len(res.Series))
	}
	perAgent := 30.0 * 1000 * (100 + 101)
	if got := res.Series[0].Points[0].Value; math.Abs(got-2*perAgent) > 1e-6 {
		t.Fatalf("fleet total = %v, want %v (both agents summed)", got, 2*perAgent)
	}
	seenAgents := map[string]bool{}
	for _, s := range res.Series[1:] {
		if s.Agent == "" || !strings.HasPrefix(s.Key, s.Agent+"/") {
			t.Fatalf("per-task fleet series %+v not labelled by agent", s)
		}
		seenAgents[s.Agent] = true
	}
	if !seenAgents["a:1"] || !seenAgents["b:2"] {
		t.Fatalf("agents in series = %v", seenAgents)
	}

	// Grouping by agent rolls each store up.
	c = mustCompile(t, "delta(INSTRUCTIONS) by agent")
	res, err = Run(stores, c, Options{StepSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("by agent: got %d series, want 3", len(res.Series))
	}

	// Merging several agents without a step is an error, not silent
	// misalignment.
	if _, err := Run(stores, c, Options{}); err == nil {
		t.Fatal("fleet merge without step unexpectedly succeeded")
	}
}

// TestDivZeroUnifiedAcrossBackends is the regression test for the
// unified division-by-zero/NaN rule: a task that retired no cycles
// yields 0 — not Inf, not NaN — identically from a store on disk and
// one in memory, fed as a recorder's tee feeds it.
func TestDivZeroUnifiedAcrossBackends(t *testing.T) {
	zeroSample := func(now time.Duration) *core.Sample {
		return &core.Sample{Time: now, Rows: []core.Row{{
			Info:   core.TaskInfo{ID: hpm.TaskID{PID: 7, TID: 7}, User: "u", Comm: "idle", State: "S"},
			Values: []float64{0},
			Counts: []uint64{5, 0, 0},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses),
			Valid:  true,
		}}}
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetColumns([]string{"c0"})
	mem, err := store.OpenMem(5)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	mem.SetColumns([]string{"c0"})
	for i := 1; i <= 5; i++ {
		s := zeroSample(time.Duration(i) * time.Second)
		if err := st.AppendSample(s); err != nil {
			t.Fatal(err)
		}
		mem.Observe(zeroSample(time.Duration(i) * time.Second))
	}
	c := mustCompile(t, "delta(INSTRUCTIONS) / delta(CYCLES)", "c0")
	for name, run := range map[string]func() (*Result, error){
		"store": func() (*Result, error) { return QueryStore(st, c, Options{StepSeconds: 10}) },
		"mem":   func() (*Result, error) { return QueryStore(mem, c, Options{StepSeconds: 10}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range res.Series {
			for _, p := range s.Points {
				if p.Value != 0 {
					t.Fatalf("%s series %q = %v, want 0 under the unified rule", name, s.Key, p.Value)
				}
			}
		}
	}
}

func TestCompileValidation(t *testing.T) {
	known := KnownNames([]string{"ipc"})

	// Unknown identifiers are named with suggestions.
	_, err := Compile("delta(CYCLE)", known)
	if err == nil || !strings.Contains(err.Error(), "CYCLES") {
		t.Fatalf("unknown name error = %v, want a CYCLES suggestion", err)
	}
	// The error carries the identifier's position.
	if !strings.Contains(err.Error(), "offset 6") {
		t.Fatalf("unknown name error = %v, want offset 6", err)
	}

	// DoS caps.
	if _, err := Compile(strings.Repeat(" ", MaxExprLen)+"CYCLES", known); err == nil {
		t.Fatal("over-length expression accepted")
	}
	deep := "CYCLES"
	for i := 0; i < MaxExprNodes; i++ {
		deep = "abs(" + deep + ")"
	}
	if _, err := Compile(deep, known); err == nil {
		t.Fatal("over-complex expression accepted")
	}

	// topk splits and validates.
	c, err := Compile("topk(3, rate(INSTRUCTIONS)) by user", known)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 3 || c.GroupBy != "user" {
		t.Fatalf("Compiled = %+v", c)
	}
	if _, err := Compile("topk(CYCLES, INSTRUCTIONS)", known); err == nil {
		t.Fatal("non-literal topk k accepted")
	}
	if _, err := Compile("1 + topk(2, CYCLES)", known); err == nil {
		t.Fatal("nested topk accepted")
	}

	// FREQ_HZ is live-sampling context, not query vocabulary.
	if _, err := Compile("FREQ_HZ", known); err == nil {
		t.Fatal("FREQ_HZ accepted in a query expression")
	}
}

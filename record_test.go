package tiptop

import (
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tiptop/internal/config"
	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/remote"
)

func recordedMonitor(t *testing.T) (*Monitor, *Recorder) {
	t.Helper()
	sc, err := NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mon.Close() })
	rec := NewRecorder(RecorderOptions{Capacity: 16})
	mon.Subscribe(rec)
	return mon, rec
}

func TestRecorderThroughMonitor(t *testing.T) {
	mon, rec := recordedMonitor(t)
	if _, err := mon.SampleNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := mon.Sample(); err != nil {
			t.Fatal(err)
		}
	}

	snap := rec.Snapshot()
	if len(snap.Tasks) != 11 {
		t.Fatalf("snapshot tasks = %d, want the 11 Figure 1 processes", len(snap.Tasks))
	}
	if snap.Refreshes != 4 { // SampleNow + 3 Samples
		t.Fatalf("refreshes = %d", snap.Refreshes)
	}
	if snap.Machine.Tasks != 11 || snap.Machine.IPC <= 0 {
		t.Fatalf("machine aggregate = %+v", snap.Machine)
	}
	if len(snap.Users) != 3 {
		t.Fatalf("users = %v", snap.Users)
	}
	u1 := snap.Users["user1"]
	if u1.Tasks != 8 || u1.Instructions == 0 {
		t.Fatalf("user1 aggregate = %+v", u1)
	}
	if got := len(snap.Columns); got != len(mon.Headers()) {
		t.Fatalf("columns = %d, want %d", got, len(mon.Headers()))
	}

	pids := rec.PIDs()
	if len(pids) != 11 {
		t.Fatalf("pids = %v", pids)
	}
	series, err := rec.History(pids[0])
	if err != nil || len(series) != 1 {
		t.Fatalf("series = %d, %v", len(series), err)
	}
	s := series[0]
	// The first observation (the SampleNow attach pass) reads zero
	// deltas; the three refresh points follow.
	if len(s.Points) != 4 || !s.Alive {
		t.Fatalf("series = %+v", s)
	}
	last := s.Points[len(s.Points)-1]
	if last.IPC <= 0 || len(last.Values) != len(snap.Columns) {
		t.Fatalf("last point = %+v", last)
	}
	if h, err := rec.History(424242); h != nil || err != nil {
		t.Fatalf("unknown pid: %v, %v; want nil, nil", h, err)
	}
}

func TestRecorderOpenMetricsEndToEnd(t *testing.T) {
	mon, rec := recordedMonitor(t)
	mon.SampleNow()
	if _, err := mon.Sample(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"tiptop_tasks 11",
		`tiptop_user_tasks{user="user1"} 8`,
		`tiptop_task_ipc{pid=`,
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestUnsubscribeStopsRecording(t *testing.T) {
	mon, rec := recordedMonitor(t)
	mon.SampleNow()
	mon.Unsubscribe(rec)
	if _, err := mon.Sample(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Refreshes; got != 1 {
		t.Fatalf("refreshes after unsubscribe = %d, want 1", got)
	}
	// Nil recorders are ignored.
	mon.Subscribe(nil)
	mon.Unsubscribe(nil)
}

func TestRecorderSeesRowsBeyondMaxRows(t *testing.T) {
	sc, err := NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, Config{Interval: time.Second, MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	rec := NewRecorder(RecorderOptions{})
	mon.Subscribe(rec)
	mon.SampleNow()
	sample, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Rows) != 3 {
		t.Fatalf("display rows = %d, want MaxRows 3", len(sample.Rows))
	}
	if got := len(rec.Snapshot().Tasks); got != 11 {
		t.Fatalf("recorded tasks = %d, want all 11 despite MaxRows", got)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"sort by column", Config{SortBy: "ipc"}, true},
		{"sort by pid", Config{SortBy: "pid"}, true},
		{"branch screen column", Config{Screen: "branch", SortBy: "misp"}, true},
		{"unknown screen", Config{Screen: "quantum"}, false},
		{"unknown sort key", Config{SortBy: "karma"}, false},
		{"column of another screen", Config{Screen: "branch", SortBy: "dmis"}, false},
		{"negative interval", Config{Interval: -time.Second}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

// TestNewNamedScenarioNames: the one scenario table drives the names,
// the builder, the machine lookup and the error text — and the -sim flag
// help, which lives in internal/config, must name every entry too.
func TestNewNamedScenarioNames(t *testing.T) {
	fs := flag.NewFlagSet("tiptop", flag.ContinueOnError)
	config.BindFlags(fs)
	simHelp := fs.Lookup("sim").Usage
	_, err := NewNamedScenario("wargames", 1)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, ok := ScenarioMachine("wargames"); ok {
		t.Fatal("unknown scenario has a machine")
	}
	for _, name := range ScenarioNames() {
		sc, err2 := NewNamedScenario(name, 0.001)
		if err2 != nil {
			t.Fatalf("%s: %v", name, err2)
		}
		machine, ok := ScenarioMachine(name)
		if !ok {
			t.Fatalf("%s: no machine", name)
		}
		if bare, _ := NewScenario(machine); bare.Machine().Name != sc.Machine().Name {
			t.Errorf("%s runs on %q, ScenarioMachine says %q", name, sc.Machine().Name, bare.Machine().Name)
		}
		if !strings.Contains(simHelp, name) {
			t.Errorf("-sim help %q does not name %q", simHelp, name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scenario error %q does not name %q", err, name)
		}
	}
}

// TestScrapeEncodeSteadyAllocs is the scrape path's budget on
// live_fleet's shape: while membership stands, encoding a refresh of
// 2000 tasks into the server's cache renders no label block, sorts
// nothing and allocates nothing (measured 0 against a budget of 4);
// replacing one task costs one re-render, once. The render counts are
// exact for every encode. The allocation count is the process's, not
// the goroutine's, so a goroutine another test left running can inflate
// any one encode: the bound holds the minimum over several encodes,
// which background allocation can only raise.
func TestScrapeEncodeSteadyAllocs(t *testing.T) {
	sc, mon, rec := scrapeFixture(t, 2000, 3)
	cache := remote.NewEncodeCache(rec.WriteOpenMetrics)
	version := uint64(0)
	encode := func() (allocs, renders uint64) {
		t.Helper()
		if _, err := mon.Sample(); err != nil {
			t.Fatal(err)
		}
		version++
		var before, after runtime.MemStats
		_, renders = rec.ExpositionStats()
		runtime.ReadMemStats(&before)
		lease, err := cache.Acquire(version)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
		runtime.ReadMemStats(&after)
		_, now := rec.ExpositionStats()
		return after.Mallocs - before.Mallocs, now - renders
	}
	for i := 0; i < 3; i++ { // both cache bodies and every buffer at size
		encode()
	}
	steady := func(what string, n int) {
		t.Helper()
		least := uint64(math.MaxUint64)
		for i := 0; i < n; i++ {
			allocs, renders := encode()
			if renders != 0 {
				t.Fatalf("%s, refresh %d: labels re-rendered %d times, want 0", what, i, renders)
			}
			least = min(least, allocs)
		}
		if least > 4 {
			t.Fatalf("%s: the least-allocating of %d encodes allocated %d times, want <= 4", what, n, least)
		}
	}
	steady("steady membership", 5)
	if err := sc.Kill(rec.PIDs()[1000]); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.StartSynthetic("user0", "job02000", 1.5); err != nil {
		t.Fatal(err)
	}
	// A replacement is two membership changes: the new task joins beside
	// the killed one's exit row, and one refresh later the exit row
	// leaves.
	if _, renders := encode(); renders != 1 {
		t.Fatalf("one task replaced: %d re-renders, want 1", renders)
	}
	if _, renders := encode(); renders != 1 {
		t.Fatalf("the exit row leaves: %d re-renders, want 1", renders)
	}
	steady("after the replacement", 3)
	if st := cache.Stats(); st.Encodes != version || st.BodyBytes < 2000*1000 || st.LastEncode <= 0 {
		t.Fatalf("cache stats = %+v after %d versions", st, version)
	}
}

// TestStorelessRefreshAllocs is a store-less recorder's budget: its
// steady-state refresh — the fold and the append to its in-memory store
// — allocates no more than internal/store's TestAppendSteadyStateAllocs
// allows an append on disk (1), measured as that test measures it: 130
// refreshes to warm up, then the mean over 200.
func TestStorelessRefreshAllocs(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	rec.h.SetColumns([]string{"mcycle", "minst", "ipc", "dmis"})
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	s := &core.Sample{Rows: make([]core.Row, 100)}
	for i := range s.Rows {
		s.Rows[i] = core.Row{
			Info:   core.TaskInfo{ID: hpm.TaskID{PID: 100 + i, TID: 100 + i}, User: "u" + string(rune('a'+i%7)), Comm: "job" + string(rune('a'+i%20)), State: "R"},
			CPUPct: 50, Values: make([]float64, 4), Counts: make([]uint64, 3), Table: table, Valid: true,
		}
	}
	feed, now := recorders{rec}, time.Duration(0)
	step := func() {
		now += time.Second
		s.Time = now
		for i := range s.Rows {
			row := &s.Rows[i]
			k := uint64(now/time.Second) + uint64(i)
			row.Counts[0], row.Counts[1], row.Counts[2] = 1000*k, 500*uint64(i+1), k%13
			row.Values[0], row.Values[1], row.Values[2], row.Values[3] = float64(k), float64(i), float64(k%7)/3, float64(i%13)/100
		}
		feed.Observe(s) // as a Monitor feeds it
		rec.h.Join()
	}
	for range 130 {
		step()
	}
	avg := testing.AllocsPerRun(200, step)
	if avg > 1 {
		t.Fatalf("a store-less recorder's steady-state refresh costs %.1f allocs, want <= 1", avg)
	}
	t.Logf("%.2f allocs per refresh", avg)
	if err := rec.store().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStorelessHistoryKeepsItsWindow holds a store-less recorder to
// Capacity however wide its refreshes: 2500 tasks of eight columns, past
// any per-task byte figure a budget could assume, over three windows.
// History keeps answering exactly Capacity points, and the in-memory
// store, which drops what lies before the window, stays within one
// window's bytes and a segment per tier.
func TestStorelessHistoryKeepsItsWindow(t *testing.T) {
	const tasks, capacity = 2500, 30
	rec := NewRecorder(RecorderOptions{Capacity: capacity})
	rec.h.SetColumns([]string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"})
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	s := &core.Sample{Rows: make([]core.Row, tasks)}
	for i := range s.Rows {
		s.Rows[i] = core.Row{
			Info:   core.TaskInfo{ID: hpm.TaskID{PID: 100 + i, TID: 100 + i}, User: "u", Comm: "job", State: "R"},
			CPUPct: 50, Values: make([]float64, 8), Counts: make([]uint64, 3), Table: table, Valid: true,
		}
	}
	feed := recorders{rec}
	var window int64
	for r := 1; r <= 3*capacity; r++ {
		s.Time = time.Duration(r) * time.Second
		for i := range s.Rows {
			row := &s.Rows[i]
			row.Counts[0], row.Counts[1], row.Counts[2] = uint64(r*i), uint64(r+i), uint64(i%13)
			for j := range row.Values {
				row.Values[j] = float64(r*i+j) / 7
			}
		}
		feed.Observe(s)
		rec.h.Join()
		if r == capacity {
			window = rec.store().DiskUsage()
		}
		if r < capacity || r%10 != 0 {
			continue
		}
		for _, pid := range []int{100, 100 + tasks/2, 100 + tasks - 1} {
			h, err := rec.History(pid)
			if err != nil || len(h) != 1 || len(h[0].Points) != capacity {
				t.Fatalf("refresh %d: pid %d: %d series, %v; want one of %d points", r, pid, len(h), err, capacity)
			}
			if got, want := h[0].Points[0].TimeSeconds, float64(r-capacity+1); got != want {
				t.Fatalf("refresh %d: pid %d's window starts at %gs, want %gs", r, pid, got, want)
			}
		}
	}
	st := rec.store()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if usage := st.DiskUsage(); usage > window+3<<20 {
		t.Fatalf("the in-memory store holds %d bytes after three windows, one window is %d", usage, window)
	}
	t.Logf("one window %d bytes, %d after three", window, st.DiskUsage())
}

// TestRecorderOpensItsStoreOnFirstUse: a recorder teed into a store
// before it records never opens one of its own; one that records, or
// is queried, without a Tee opens its in-memory store then. A query
// handler with neither a store nor a recorder answers 404.
func TestRecorderOpensItsStoreOnFirstUse(t *testing.T) {
	_, mon := nodeFixture(t, MachineE5640, "", 4)
	teed, bare, idle := NewRecorder(RecorderOptions{}), NewRecorder(RecorderOptions{}), NewRecorder(RecorderOptions{})
	mon.Subscribe(teed)
	mon.Subscribe(bare)
	if teed.st != nil || bare.st != nil {
		t.Fatal("NewRecorder or Subscribe opened a store")
	}
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	teed.Tee(st)
	for range 2 {
		if _, err := mon.SampleNow(); err != nil {
			t.Fatal(err)
		}
	}
	if teed.st != st {
		t.Fatal("the teed recorder replaced its store")
	}
	if bare.st == nil || bare.st.Dir() != "mem" || bare.st.Records() == 0 {
		t.Fatalf("the store-less recorder records into %v", bare.st)
	}
	if idle.Querier() == nil || idle.st == nil || idle.st.Dir() != "mem" {
		t.Fatalf("a queried recorder has store %v", idle.st)
	}
	w := httptest.NewRecorder()
	QueryHandler(nil, nil).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query", nil))
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), `"error"`) {
		t.Fatalf("QueryHandler(nil, nil): %d %s", w.Code, w.Body)
	}
}

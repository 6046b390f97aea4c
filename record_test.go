package tiptop

import (
	"flag"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"tiptop/internal/config"
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

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tiptop"
)

func TestBuildScenarioAll(t *testing.T) {
	for _, name := range []string{"spec", "revolution", "conflict", "datacenter", "assist"} {
		sc, err := tiptop.NewNamedScenario(name, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc == nil {
			t.Fatalf("%s: nil scenario", name)
		}
	}
	if _, err := tiptop.NewNamedScenario("wargames", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestBuildScenarioDatacenterShape(t *testing.T) {
	sc, err := tiptop.NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(sc, tiptop.Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.SampleNow()
	sample, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Rows) != 11 {
		t.Fatalf("datacenter rows = %d, want the 11 Figure 1 processes", len(sample.Rows))
	}
}

func TestBuildMonitorFallsBack(t *testing.T) {
	// In environments without perf_event this exercises the fallback;
	// where perf works, it exercises the real path. Either way a
	// usable monitor must come back.
	mon, _, err := tiptop.OpenMonitor("", "spec", 0.001, tiptop.Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if mon.Machine() == "" {
		t.Fatal("machine description empty")
	}
}

// TestRunListDeterministic is the regression test for the map-iteration
// bug: two -list runs must produce identical, sorted output.
func TestRunListDeterministic(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := run([]string{"-list"}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("-list output changed between runs:\n%s\nvs\n%s", first, got)
		}
	}
	// The screen names appear in sorted order.
	var names []string
	for _, line := range strings.Split(first, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 1 && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			names = append(names, fields[0])
		}
	}
	want := []string{"branch", "default", "fp", "lat", "mem", "roofline"}
	if len(names) < len(want) {
		t.Fatalf("screen lines = %v", names)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("screens not sorted: %v, want prefix %v", names, want)
		}
	}
}

func TestRunDumpConfigDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		if err := run([]string{"-dump-config"}, &sb); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
			if !strings.Contains(first, `name="default"`) {
				t.Fatalf("dump-config output = %q", first)
			}
			continue
		}
		if sb.String() != first {
			t.Fatal("-dump-config output changed between runs")
		}
	}
}

func TestRunBatchSim(t *testing.T) {
	err := run([]string{"-b", "-n", "2", "-d", "1", "-sim", "spec", "-scale", "0.001"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchDrainsOnExitRows: without -n, a simulated scenario runs
// until a refresh holds no live row. Jobs that all finish within the
// first interval show once, as exit rows carrying their final counts,
// and that refresh is the last.
func TestRunBatchDrainsOnExitRows(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-b", "-d", "1", "-sim", "spec", "-scale", "0.001"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 6 || lines[0] != "--- t=1s tasks=4" || strings.Contains(sb.String(), " - ") {
		t.Fatalf("want one block of 4 exit rows with their counts, got:\n%s", sb.String())
	}
}

// TestRunBatchGolden pins the batch-mode text output over a seeded sim
// scenario byte for byte. The simulator is deterministic, so any drift
// here is a real behaviour change.
func TestRunBatchGolden(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-b", "-n", "2", "-d", "1", "-sim", "datacenter"}, &sb); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "batch_datacenter.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("batch output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, sb.String(), want)
	}
}

// TestRunBatchSinkGoldens pins the CSV and JSONL sinks' bytes over the
// same seeded scenario as TestRunBatchGolden; the goldens were written
// by the encoding/json-based sinks the hand-written ones replace.
func TestRunBatchSinkGoldens(t *testing.T) {
	for _, format := range []string{"csv", "jsonl"} {
		var sb strings.Builder
		if err := run([]string{"-b", "-n", "2", "-d", "1", "-sim", "datacenter", "-o", format}, &sb); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "batch_datacenter_"+format+".golden")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Fatalf("%s output drifted from %s:\n--- got ---\n%s--- want ---\n%s", format, golden, sb.String(), want)
		}
	}
}

// TestRunFlagValidation covers the CLI input checks: the removed -j,
// non-positive -d, unknown -sort/-screen/-o, bad combinations.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		errWant string
	}{
		{"zero delay", []string{"-d", "0"}, "delay must be positive"},
		{"negative delay", []string{"-d", "-3"}, "delay must be positive"},
		{"removed -j", []string{"-j", "2", "-b", "-n", "1", "-sim", "spec"}, "flag provided but not defined: -j"},
		{"unknown sort", []string{"-sort", "karma", "-sim", "spec"}, "unknown sort key"},
		{"sort from other screen", []string{"-sort", "dmis", "-screen", "branch", "-sim", "spec"}, "unknown sort key"},
		{"unknown screen", []string{"-screen", "nope", "-sim", "spec"}, "unknown screen"},
		{"unknown scenario", []string{"-sim", "nope"}, "unknown scenario"},
		{"unknown format", []string{"-b", "-o", "yaml", "-sim", "spec"}, "unknown output format"},
		{"format without batch", []string{"-o", "csv", "-sim", "spec"}, "requires batch mode"},
		{"unknown flag", []string{"-bogusflag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%s: args %v must fail", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.errWant)
		}
	}
	// The validated inputs still work.
	ok := [][]string{
		{"-b", "-n", "1", "-sort", "pid", "-sim", "spec", "-scale", "0.001"},
		{"-b", "-n", "1", "-sort", "ipc", "-sim", "spec", "-scale", "0.001"},
	}
	for _, args := range ok {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
}

func TestRunBatchCSVOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-b", "-n", "2", "-o", "csv", "-sim", "datacenter"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.HasPrefix(lines[0], "time_s,pid,tid,user,command,state,cpu_pct,ipc,monitored") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+2*11 { // header + 11 rows × 2 samples
		t.Fatalf("csv lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.Contains(sb.String(), "process1") {
		t.Fatalf("csv rows missing workloads:\n%s", sb.String())
	}
}

func TestRunBatchJSONLOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-b", "-n", "2", "-o", "jsonl", "-sim", "datacenter"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	for _, line := range lines {
		var sample struct {
			TimeSeconds float64  `json:"time_s"`
			Columns     []string `json:"columns"`
			Rows        []struct {
				Command string `json:"command"`
			} `json:"rows"`
		}
		if err := json.Unmarshal([]byte(line), &sample); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
		if sample.TimeSeconds <= 0 || len(sample.Columns) == 0 || len(sample.Rows) == 0 {
			t.Fatalf("sample = %+v", sample)
		}
	}
}

func TestRunRecordToFile(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		file string
		want string
	}{
		{"samples.csv", "time_s,pid"},
		{"samples.jsonl", `{"time_s":`},
	} {
		path := filepath.Join(dir, tc.file)
		err := run([]string{"-b", "-n", "2", "-record", path, "-sim", "datacenter"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), tc.want) {
			t.Fatalf("%s missing %q:\n%s", tc.file, tc.want, data)
		}
	}
	// Unwritable record path fails cleanly.
	if err := run([]string{"-b", "-record", filepath.Join(dir, "no/such/dir/x.csv"), "-sim", "spec"}, io.Discard); err == nil {
		t.Fatal("bad record path accepted")
	}
}

// TestRecordSeesRowsBeyondDisplayClip: -rows bounds the rendered
// display only; the -record sink must cover every monitored task.
func TestRecordSeesRowsBeyondDisplayClip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "all.csv")
	var sb strings.Builder
	err := run([]string{"-b", "-n", "1", "-rows", "3", "-record", path, "-sim", "datacenter"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	display := strings.Count(sb.String(), "process")
	if display != 3 {
		t.Fatalf("displayed rows = %d, want the -rows clip of 3:\n%s", display, sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recorded := strings.Count(string(data), "process"); recorded != 11 {
		t.Fatalf("recorded rows = %d, want all 11 tasks:\n%s", recorded, data)
	}
}

func TestRunWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiptop.xml")
	content := `<tiptop><options delay="1" sort="pid" max_tasks="2" format="csv" record="` +
		filepath.Join(dir, "rec.csv") + `"/></tiptop>`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-b", "-n", "1", "-sim", "spec", "-scale", "0.001", "-config", path}, &sb); err != nil {
		t.Fatal(err)
	}
	// The config's format=csv drives stdout, its record= writes the file.
	if !strings.HasPrefix(sb.String(), "time_s,pid") {
		t.Fatalf("config format ignored: %q", sb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "rec.csv")); err != nil {
		t.Fatalf("config record ignored: %v", err)
	}
	// Invalid config file.
	bad := filepath.Join(dir, "bad.xml")
	os.WriteFile(bad, []byte("<tiptop><screen name='s'/></tiptop>"), 0o644)
	if err := run([]string{"-b", "-config", bad, "-sim", "spec"}, io.Discard); err == nil {
		t.Fatal("invalid config must fail")
	}
	if err := run([]string{"-b", "-config", filepath.Join(dir, "missing.xml"), "-sim", "spec"}, io.Discard); err == nil {
		t.Fatal("missing config must fail")
	}
}

// TestConfigFormatOnlyUnderBatch: a -config file shared with batch jobs
// may set format=, but outside -b its format does not apply — the
// interactive screen renders text and the file's record= target still
// records — while an explicit -o outside -b stays a usage error.
func TestConfigFormatOnlyUnderBatch(t *testing.T) {
	dir := t.TempDir()
	path, rec := filepath.Join(dir, "tiptop.xml"), filepath.Join(dir, "rec.csv")
	doc := `<tiptop><options format="csv" record="` + rec + `"/></tiptop>`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-n", "1", "-sim", "datacenter", "-config", path}, &sb); err != nil {
		t.Fatalf("a file's format= made the interactive run fail: %v", err)
	}
	if out := sb.String(); strings.Contains(out, "time_s,pid") || !strings.Contains(out, "process1") {
		t.Fatalf("interactive run with a file's format=csv did not paint the text screen:\n%q", out)
	}
	data, err := os.ReadFile(rec)
	if err != nil || !strings.HasPrefix(string(data), "time_s,pid") {
		t.Fatalf("the file's record= target was not recorded (%v):\n%s", err, data)
	}
	err = run([]string{"-o", "csv", "-n", "1", "-sim", "datacenter", "-config", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "requires batch mode") {
		t.Fatalf("-o csv without -b: err = %v, want a batch-mode usage error", err)
	}
}

// TestRunListEventsGolden pins the -list-events registry table: sorted
// by name, deterministic run to run, with per-backend support status.
func TestRunListEventsGolden(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := run([]string{"-list-events"}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	want, err := os.ReadFile(filepath.Join("testdata", "list_events.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if first != string(want) {
		t.Fatalf("-list-events drifted:\n--- got ---\n%s--- want ---\n%s", first, want)
	}
	for i := 0; i < 5; i++ {
		if render() != first {
			t.Fatal("-list-events output changed between runs")
		}
	}
}

// TestRunListEventsWithConfig: -config <event> definitions appear in
// the listing, and the sim column tracks the selected scenario's
// machine (the PPC970 never decodes the FP-assist code — here approximated
// by the datacenter/Westmere switch keeping it supported).
func TestRunListEventsWithConfig(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-list-events", "-config", filepath.Join("..", "..", "examples", "custom-events.xml")}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FP_ASSIST_RAW", "L1D_MISSES", "hw-cache", "type=4 config=0x1ef7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list-events with config missing %q:\n%s", want, out)
		}
	}
}

// TestRunBatchAssistCustomGolden is the end-to-end test of the
// extensible event registry: a custom event defined purely in XML
// (FP_ASSIST_RAW, raw code 0x1EF7 — no registry defaults edited)
// renders in a custom screen against the sim backend, whose machine
// model decodes the raw code. The golden pins the §3.1 signature: the
// x87/inf micro-kernel's IPC collapses while %ASST shows 25 assists
// per hundred instructions.
func TestRunBatchAssistCustomGolden(t *testing.T) {
	var sb strings.Builder
	args := []string{"-b", "-n", "2", "-d", "0.05", "-sim", "assist",
		"-config", filepath.Join("..", "..", "examples", "custom-events.xml"),
		"-screen", "fpcustom"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "batch_assist_custom.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("assist batch output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, sb.String(), want)
	}
	if !strings.Contains(sb.String(), "25.00") {
		t.Fatal("golden lost the 25%% assist signature")
	}
}

// TestRunRejectsUnknownScreenIdentifier: a -config screen with a typo'd
// event fails at load time, naming the column and the identifier.
func TestRunRejectsUnknownScreenIdentifier(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typo.xml")
	content := `<tiptop><screen name="s"><column name="c" header="C" expr="ratio(CYCELS, INSTRUCTIONS)"/></screen></tiptop>`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-b", "-config", path, "-sim", "spec"}, io.Discard)
	if err == nil {
		t.Fatal("typo'd identifier accepted")
	}
	for _, want := range []string{`"c"`, `"CYCELS"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestRunRecordStore: a -record target naming a directory selects the
// durable store; the recorded history must be queryable and span a
// second run against the same directory.
func TestRunRecordStore(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-b", "-n", "3", "-sim", "datacenter", "-d", "0.01",
		"-record", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstBoundary := st.LastTime().Seconds()
	res, err := st.Query(tiptop.StoreQuery{PID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || len(res.Series[0].Points) == 0 {
		t.Fatal("store recorded no series")
	}
	if len(res.Columns) == 0 {
		t.Fatalf("store lost the screen columns: %+v", res)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second run appends past the first (the monotonic store clock).
	if err := run([]string{"-b", "-n", "2", "-sim", "datacenter", "-d", "0.01",
		"-record", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	st, err = tiptop.OpenStore(dir, tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.LastTime().Seconds(); got <= firstBoundary {
		t.Fatalf("second run did not extend history (%g <= %g)", got, firstBoundary)
	}
	res, err = st.Query(tiptop.StoreQuery{PID: -1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after int
	for _, p := range res.Machine {
		if p.TimeSeconds <= firstBoundary {
			before++
		} else {
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("recorded history does not span the runs: %d before, %d after", before, after)
	}
}

// TestRecordStoreIsDaemonStore: tiptop -record DIR and tiptopd -store
// fill a store the same way — a recorder subscribed before the attach
// pass, teed into the store — so the same scenario, configuration and
// refresh count leave byte-identical segment files.
func TestRecordStoreIsDaemonStore(t *testing.T) {
	args := []string{"-b", "-n", "20", "-sim", "datacenter", "-d", "0.01"}
	local := t.TempDir()
	if err := run(append(args, "-record", local), io.Discard); err != nil {
		t.Fatal(err)
	}
	o, err := resolve(args)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := tiptop.NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.cfg
	cfg.StoreDir = t.TempDir()
	d, err := tiptop.NewDaemon(cfg, tiptop.DaemonOptions{Sim: sc})
	if err != nil {
		t.Fatal(err)
	}
	for range 21 { // the attach pass, then -n 20
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segments := func(dir string) map[string][]byte {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no segments in %s (%v)", dir, err)
		}
		out := map[string][]byte{}
		for _, f := range files {
			if out[filepath.Base(f)], err = os.ReadFile(f); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	got, want := segments(local), segments(cfg.StoreDir)
	if len(got) != len(want) {
		t.Fatalf("tiptop wrote segments %v, the daemon %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("%s: tiptop wrote %d bytes, the daemon %d, not the same", name, len(got[name]), len(b))
		}
	}
}

// TestRecordStoreSkipsAttachRow: through tiptop's own wiring, a job
// that starts mid-run gets a first 10 s point whose ipc column is its
// IPC (the ratio of the bucket's sums) and whose mcycle column is the
// mean of its raw rows after its attach read: the store never folds an
// attach read into a tier.
func TestRecordStoreSkipsAttachRow(t *testing.T) {
	sc, err := tiptop.NewScenario(tiptop.MachineE5640)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.StartSynthetic("user", "early", 1.5); err != nil {
		t.Fatal(err)
	}
	cfg := tiptop.Config{Interval: time.Second, StoreDir: t.TempDir()}
	mon, err := tiptop.NewSimMonitor(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	em, closeSinks, err := newEmitter(mon, "text", io.Discard, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.SampleNow(); err != nil { // the attach pass
		t.Fatal(err)
	}
	var late int
	for i := 1; i <= 40; i++ {
		if i == 15 {
			if late, err = sc.StartSynthetic("user", "late", 1.5); err != nil {
				t.Fatal(err)
			}
		}
		s, err := mon.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if err := em.emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeSinks(); err != nil {
		t.Fatal(err)
	}
	st, err := tiptop.OpenStore(cfg.StoreDir, tiptop.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	raw, err := st.Query(tiptop.StoreQuery{PID: late})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := st.Query(tiptop.StoreQuery{PID: late, StepSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Series) != 1 || len(tier.Series) != 1 || len(tier.Series[0].Points) == 0 {
		t.Fatalf("late job %d: %d raw series, %d tier series", late, len(raw.Series), len(tier.Series))
	}
	ipc, mcycle := slices.Index(tier.Columns, "ipc"), slices.Index(tier.Columns, "mcycle")
	first := tier.Series[0].Points[0]
	var sum float64
	n := 0
	for _, p := range raw.Series[0].Points[1:] { // past the attach read
		if 10*math.Ceil(p.TimeSeconds/10) == first.TimeSeconds {
			sum += p.Values[mcycle]
			n++
		}
	}
	if n == 0 || math.Abs(first.Values[ipc]/first.IPC-1) > 1e-12 || math.Abs(first.Values[mcycle]/(sum/float64(n))-1) > 1e-12 {
		t.Fatalf("late job's first 10 s point at %gs reads ipc %.6g against IPC %.6g, mcycle %.6g against the mean %.6g of its %d raw rows after the attach read",
			first.TimeSeconds, first.Values[ipc], first.IPC, first.Values[mcycle], sum/float64(n), n)
	}
}

// TestIsStoreTarget pins the -record target classification.
func TestIsStoreTarget(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]bool{
		"":                false,
		"samples.csv":     false,
		"samples.jsonl":   false,
		"history.store":   true,
		"data/":           true,
		dir:               true, // existing directory
		"missing-but-csv": false,
	}
	for path, want := range cases {
		if got := isStoreTarget(path); got != want {
			t.Errorf("isStoreTarget(%q) = %v, want %v", path, got, want)
		}
	}
}

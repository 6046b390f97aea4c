package export

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/history"
	"tiptop/internal/hpm"
)

func sampleFixture() *Sample {
	return &Sample{
		TimeSeconds: 2,
		Columns:     []string{"ipc", "dmis"},
		Rows: []Row{
			{
				PID: 3, TID: 3, User: "alice", Command: "mcf, \"opt\"", State: "R",
				CPUPct: 93.5, IPC: 1.25, Monitored: true, Values: []float64{1.25, 0.5},
			},
			{
				PID: 9, TID: 9, User: "bob", Command: "idle", State: "S",
				Values: []float64{0, 0},
			},
		},
	}
}

func TestCSVSink(t *testing.T) {
	var sb strings.Builder
	sink := NewCSV(&sb)
	s := sampleFixture()
	if err := sink.Write(s); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(s); err != nil { // header only once
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 { // header + 2 rows × 2 samples
		t.Fatalf("lines = %d:\n%s", len(lines), sb.String())
	}
	if lines[0] != "time_s,pid,tid,user,command,state,cpu_pct,ipc,monitored,ipc,dmis" {
		t.Fatalf("header = %q", lines[0])
	}
	// The command contains a comma and quotes: must be RFC-4180 quoted.
	if !strings.Contains(lines[1], `"mcf, ""opt"""`) {
		t.Fatalf("quoting broken: %q", lines[1])
	}
	if !strings.HasPrefix(lines[1], "2,3,3,alice,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestJSONLSink(t *testing.T) {
	var sb strings.Builder
	sink := NewJSONL(&sb)
	s := sampleFixture()
	for i := 0; i < 2; i++ {
		if err := sink.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"time_s":2,`) || !strings.Contains(line, `"pid":3`) {
			t.Fatalf("line = %q", line)
		}
	}
}

func TestNewSinkByName(t *testing.T) {
	var sb strings.Builder
	for _, f := range []string{FormatCSV, FormatJSONL} {
		if _, err := NewSink(f, &sb); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	if _, err := NewSink("xml", &sb); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// failWriter fails after n bytes, standing in for a broken pipe.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("broken pipe")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("broken pipe")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestSinksSurfacePipeErrors(t *testing.T) {
	for _, format := range []string{FormatCSV, FormatJSONL} {
		sink, _ := NewSink(format, &failWriter{n: 10})
		s := sampleFixture()
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			err = sink.Write(s)
		}
		if err == nil {
			t.Fatalf("%s: write error on a dead pipe was swallowed", format)
		}
	}
}

func recorderFixture() *history.Recorder {
	rec := history.New(history.Options{Capacity: 8})
	rec.SetColumns([]string{"ipc", "dmis"})
	for i := 1; i <= 3; i++ {
		cs := &core.Sample{Time: time.Duration(i) * time.Second}
		cs.Rows = append(cs.Rows, core.Row{
			Info: core.TaskInfo{
				ID:   hpm.TaskID{PID: 3, TID: 3},
				User: "alice", Comm: `mcf "x"`, State: "R",
			},
			CPUPct: 90,
			Values: []float64{1.5, 0.2},
			Counts: []uint64{3000, 2000, 10},
			Table:  core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses),
			Valid:  true,
		})
		rec.Observe(cs)
	}
	return rec
}

// encodeSolo renders the recorder's exposition through a fresh encoder.
func encodeSolo(t testing.TB, w io.Writer, rec *history.Recorder) {
	t.Helper()
	var v history.View
	rec.View(&v)
	if err := new(Encoder).Write(w, &v); err != nil {
		t.Fatal(err)
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	var sb strings.Builder
	encodeSolo(t, &sb, recorderFixture())
	out := sb.String()
	for _, want := range []string{
		"# TYPE tiptop_tasks gauge",
		"tiptop_tasks 1",
		"tiptop_refreshes_total 3",
		"tiptop_machine_ipc 1.5",
		"tiptop_machine_instructions_total 9000",
		`tiptop_user_ipc{user="alice"} 1.5`,
		`tiptop_command_cache_misses_total{command="mcf \"x\""} 30`,
		`tiptop_task_ipc{pid="3",tid="3",user="alice",command="mcf \"x\""} 1.5`,
		`tiptop_task_metric{pid="3",tid="3",user="alice",command="mcf \"x\"",column="dmis"} 0.2`,
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Every non-comment line must parse as "<series> <float>".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
	}
	// Deterministic output: a second render is byte-identical.
	var sb2 strings.Builder
	encodeSolo(t, &sb2, recorderFixture())
	if sb2.String() != out {
		t.Fatal("exposition is not deterministic")
	}
}

// viewFixture builds a view by hand: n tasks, the given columns, and
// label values that need every escape the format has.
func viewFixture(n int, cols []string, nvalues int) *history.View {
	v := &history.View{
		TimeSeconds: 12.5,
		Refreshes:   7,
		Columns:     cols,
		Machine:     history.Aggregate{Tasks: n, CPUPct: 180.25, IPC: 1.25, WindowIPC: 1.5, WindowMIPS: 1e-7, Instructions: 1 << 40, Cycles: 3, CacheMisses: 9},
	}
	byUser, byCommand := map[string]history.Aggregate{}, map[string]history.Aggregate{}
	users := []string{"alice", `bo"b`, "c\\d", "e\nf"}
	for i := 0; i < n; i++ {
		t := history.TaskSnap{
			PID: 100 + i/2, TID: 100 + i, User: users[i%len(users)],
			Command: fmt.Sprintf("cmd%d \"%d\"\\\n", i%3, i), State: "R",
			CPUPct: float64(i) * 12.5, IPC: 1 / float64(i+1),
			Coverage: []float64{0, 0.25, 1, 1.5, -1}[i%5],
		}
		for v := 0; v < nvalues; v++ {
			t.Values = append(t.Values, float64(i*v)/3)
		}
		v.Tasks = append(v.Tasks, t)
		byUser[t.User] = history.Aggregate{Tasks: i + 1, IPC: float64(i)}
		byCommand[t.Command] = history.Aggregate{Tasks: 1, CPUPct: t.CPUPct}
	}
	v.Users, v.Commands = keyed(byUser), keyed(byCommand)
	return v
}

func keyed(m map[string]history.Aggregate) []history.KeyedAggregate {
	var out []history.KeyedAggregate
	for k, a := range m {
		out = append(out, history.KeyedAggregate{Key: k, Aggregate: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestOpenMetricsMatchesReference holds the append-based writer to the
// bytes of the writer it replaced, solo and fleet, over the shapes the
// writer branches on.
func TestOpenMetricsMatchesReference(t *testing.T) {
	shapes := map[string]*history.View{
		"tasks and columns":   viewFixture(7, []string{"ipc", `d"mis\`, "x\ny"}, 3),
		"zero tasks":          viewFixture(0, []string{"ipc"}, 1),
		"zero columns":        viewFixture(5, nil, 0),
		"values < columns":    viewFixture(5, []string{"a", "b", "c"}, 2),
		"values > columns":    viewFixture(5, []string{"a"}, 3),
		"many tasks (chunks)": viewFixture(900, []string{"a", "b", "c", "d"}, 4),
	}
	// One encoder for every shape: a view it has not rendered is never
	// served another's label blocks.
	var enc Encoder
	for name, v := range shapes {
		var got, want bytes.Buffer
		if err := enc.Write(&got, v); err != nil {
			t.Fatal(err)
		}
		if err := refWriteOpenMetrics(&want, v.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("solo %s: exposition differs from the reference writer\n%s", name, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
	fleets := map[string][]FleetMachine{
		"mixed": {
			{Label: `z"9:1`, Up: true, View: shapes["tasks and columns"]},
			{Label: "a:1", Up: false, View: shapes["zero tasks"]},
			{Label: "m:1", Up: true, View: shapes["zero columns"]},
			{Label: "b:1", Up: true, View: shapes["values < columns"]},
		},
		"no columns anywhere": {{Label: "a:1", Up: true, View: shapes["zero columns"]}},
		"no machines":         nil,
	}
	for name, ms := range fleets {
		var got, want bytes.Buffer
		if err := enc.WriteFleet(&got, ms); err != nil {
			t.Fatal(err)
		}
		if err := refWriteFleetOpenMetrics(&want, refMachines(ms)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("fleet %s: exposition differs from the reference writer\n%s", name, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
}

func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d:\n got  %q\n want %q", i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// TestFleetExpositionCarriesCoverage: a -join head must not hide the
// multiplexing coverage every agent exports.
func TestFleetExpositionCarriesCoverage(t *testing.T) {
	var b bytes.Buffer
	ms := []FleetMachine{{Label: "a:1", Up: true, View: viewFixture(2, []string{"ipc"}, 1)}}
	if err := new(Encoder).WriteFleet(&b, ms); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE tiptop_task_coverage gauge\n",
		"tiptop_task_coverage{machine=\"a:1\",pid=\"100\",tid=\"100\",user=\"alice\",command=\"cmd0 \\\"0\\\"\\\\\\n\"} 1\n",
		"tiptop_task_coverage{machine=\"a:1\",pid=\"100\",tid=\"101\",user=\"bo\\\"b\",command=\"cmd1 \\\"1\\\"\\\\\\n\"} 0.25\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("fleet exposition missing %q\n%s", want, b.String())
		}
	}
}

// TestOpenMetricsSurfacesWriteError: a failing destination is reported
// whichever chunk it fails on.
func TestOpenMetricsSurfacesWriteError(t *testing.T) {
	v := viewFixture(900, []string{"a", "b"}, 2)
	for _, n := range []int{0, 10, omChunk + 10} {
		if err := new(Encoder).Write(&failWriter{n: n}, v); err == nil {
			t.Errorf("write error after %d bytes was swallowed", n)
		}
	}
}

// TestOpenMetricsEncodeAllocs gates what the exposition of a 2000-task
// refresh may allocate once the encoder has rendered the view's label
// blocks (38,068 with the per-sample writer, 84 with the per-call one).
func TestOpenMetricsEncodeAllocs(t *testing.T) {
	v := viewFixture(2000, []string{"a", "b", "c", "d", "e"}, 5)
	var buf bytes.Buffer
	var enc Encoder
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := enc.Write(&buf, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one steady-state OpenMetrics encode of 2000 tasks = %.0f allocs, want 0", allocs)
	}
	if encodes, renders := enc.Stats(); encodes != 6 || renders != 1 {
		t.Fatalf("%d encodes of which %d rendered labels, want 6 and 1", encodes, renders)
	}
}

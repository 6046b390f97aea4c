package main

// The identity that keeps the front end one presenter: what the
// interactive screen paints for a refresh is, line for line, the block
// -b prints for it — local or -connect'ed, whatever the screen.

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/term"
)

var (
	lineWrite = regexp.MustCompile(`\x1b\[(\d+);1H(.*?)\x1b\[K`)
	styling   = regexp.MustCompile(`\x1b\[[0-9;?]*[A-Za-z]`)
)

// frames replays the escape stream of an interactive run into the text
// each refresh left on the terminal (styling stripped, trailing blank
// lines dropped): every Flush rewrites the lines that changed and ends
// by homing the cursor.
func frames(stream string) [][]string {
	var out [][]string
	var screen []string
	flushes := strings.Split(stream, "\x1b[H")
	for _, flush := range flushes[:len(flushes)-1] { // the rest is Close's trailer
		for _, m := range lineWrite.FindAllStringSubmatch(flush, -1) {
			row, _ := strconv.Atoi(m[1])
			for len(screen) < row {
				screen = append(screen, "")
			}
			screen[row-1] = styling.ReplaceAllString(m[2], "")
		}
		frame := slices.Clone(screen)
		for len(frame) > 0 && frame[len(frame)-1] == "" {
			frame = frame[:len(frame)-1]
		}
		out = append(out, frame)
	}
	return out
}

// blocks splits -b output into one heading-plus-rows block per refresh.
func blocks(batch string) [][]string {
	var out [][]string
	for _, line := range strings.Split(strings.TrimSuffix(batch, "\n"), "\n") {
		if strings.HasPrefix(line, "--- t=") {
			out = append(out, nil)
		} else {
			out[len(out)-1] = append(out[len(out)-1], line)
		}
	}
	return out
}

// requirePaintedEqualsBatch: per refresh, a status bar, then exactly the
// heading and row lines of the batch block.
func requirePaintedEqualsBatch(t *testing.T, live, batch string) {
	t.Helper()
	fs, bs := frames(live), blocks(batch)
	if len(fs) == 0 || len(fs) != len(bs) {
		t.Fatalf("%d painted frames for %d batch blocks:\n%q", len(fs), len(bs), live)
	}
	for k := range fs {
		if !strings.HasPrefix(fs[k][0], "tiptop - ") || !strings.Contains(fs[k][0], "quits") {
			t.Fatalf("refresh %d: no status bar: %q", k, fs[k][0])
		}
		if len(bs[k]) < 2 {
			t.Fatalf("refresh %d: batch block has no rows: %q", k, bs[k])
		}
		if !slices.Equal(fs[k][1:], bs[k]) {
			t.Fatalf("refresh %d: painted\n%s\nbut -b prints\n%s", k,
				strings.Join(fs[k][1:], "\n"), strings.Join(bs[k], "\n"))
		}
	}
}

func TestScreenPaintsBatchRows(t *testing.T) {
	custom := filepath.Join("..", "..", "examples", "custom-events.xml")
	recorded := filepath.Join(t.TempDir(), "all.csv")
	var lastLive string
	for _, args := range [][]string{
		{"-sim", "datacenter"},
		{"-sim", "steady", "-system-wide"}, // rows are cpu0…cpu3, not PIDs -1…-4
		{"-sim", "assist", "-d", "0.05", "-config", custom, "-screen", "fpcustom"}, // custom format= and width=
		{"-sim", "datacenter", "-rows", "3", "-record", recorded},                  // clips the display only
	} {
		args = append(args, "-n", "2")
		var live, batch strings.Builder
		if err := run(args, &live); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := run(append(args, "-b"), &batch); err != nil {
			t.Fatalf("%v -b: %v", args, err)
		}
		requirePaintedEqualsBatch(t, live.String(), batch.String())
		lastLive = live.String()
	}
	if got := len(frames(lastLive)[0]); got != 2+3 {
		t.Fatalf("-rows 3 painted %d lines, want status, heading and 3 rows", got)
	}
	data, err := os.ReadFile(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(data), "process"); rows != 2*11 {
		t.Fatalf("-rows 3 recorded %d rows, want all 11 tasks of both refreshes", rows)
	}
}

// TestScreenPaintsBatchRowsConnect is the same identity across the wire,
// both encodings: one remote refresh goes to an interactive and a batch
// emitter (the agent keeps sampling, so two runs would see different
// refreshes).
func TestScreenPaintsBatchRowsConnect(t *testing.T) {
	ts := startWireAgent(t)
	for _, wire := range []string{"json", "binary"} {
		mon, err := tiptop.NewRemoteMonitorWire(ts.URL, wire)
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		var live, batch strings.Builder
		interactive, closeScreen, err := newEmitter(mon, "text", &live, "", tiptop.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if interactive.screen, err = term.NewScreen(&live, 40, 160); err != nil {
			t.Fatal(err)
		}
		classic, _, err := newEmitter(mon, "text", &batch, "", tiptop.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s, err := mon.Sample()
			if err != nil {
				t.Fatal(err)
			}
			if err := interactive.emit(s); err != nil {
				t.Fatal(err)
			}
			if err := classic.emit(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := closeScreen(); err != nil {
			t.Fatal(err)
		}
		requirePaintedEqualsBatch(t, live.String(), batch.String())
	}
}

// TestPaintDoesNotPanic: a terminal shorter than the task list drops the
// rows below its last line — and only on the display; the -record sink
// still sees every task.
func TestPaintDoesNotPanic(t *testing.T) {
	sc, err := tiptop.NewNamedScenario("datacenter", 0.001)
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
	var live strings.Builder
	path := filepath.Join(t.TempDir(), "all.csv")
	em, closeSinks, err := newEmitter(mon, "text", &live, path, tiptop.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if em.screen, err = term.NewScreen(&live, 6, 140); err != nil { // status, heading, 4 rows
		t.Fatal(err)
	}
	if err := em.emit(sample); err != nil {
		t.Fatal(err)
	}
	if err := closeSinks(); err != nil {
		t.Fatal(err)
	}
	var batch strings.Builder
	if err := mon.Render(&batch, sample); err != nil {
		t.Fatal(err)
	}
	painted, full := frames(live.String())[0], blocks(batch.String())[0]
	if len(painted) != 6 || !strings.HasPrefix(painted[0], "tiptop - ") || !slices.Equal(painted[1:], full[:5]) {
		t.Fatalf("6-line terminal shows\n%s\nwant a status bar over the first 5 lines of\n%s",
			strings.Join(painted, "\n"), strings.Join(full, "\n"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recorded := strings.Count(string(data), "process"); recorded != 11 {
		t.Fatalf("recorded rows = %d, want all 11 tasks:\n%s", recorded, data)
	}
}

package tiptop

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tiptop/internal/metrics"
)

func renderFixture() (*metrics.Screen, *Sample) {
	screen := metrics.DefaultScreen()
	sample := &Sample{
		Time: 10 * time.Second,
		Rows: []Row{
			{
				PID: 2962, TID: 2962, User: "user1", Command: "process1", State: "R",
				CPUPct: 100.0, IPC: 1.97, Columns: []float64{26456, 52125, 1.97, 0.0},
				Events:    map[string]uint64{"CYCLES": 26456e6, "INSTRUCTIONS": 52125e6},
				Monitored: true,
			},
			{
				PID: 999, TID: 999, User: "root", Command: "hidden", State: "S",
				CPUPct: 1.5, Columns: make([]float64, 4),
			},
		},
	}
	return screen, sample
}

func TestHeaderLayout(t *testing.T) {
	screen, _ := renderFixture()
	h := header(screen)
	for _, col := range []string{"PID", "USER", "%CPU", "Mcycle", "Minst", "IPC", "DMIS", "COMMAND"} {
		if !strings.Contains(h, col) {
			t.Errorf("header missing %q: %q", col, h)
		}
	}
	// Figure 1 order: %CPU before Mcycle before IPC.
	if strings.Index(h, "%CPU") > strings.Index(h, "Mcycle") ||
		strings.Index(h, "Mcycle") > strings.Index(h, "IPC") {
		t.Fatalf("column order wrong: %q", h)
	}
}

func TestFormatRowFigure1(t *testing.T) {
	screen, sample := renderFixture()
	row := formatRow(screen, &sample.Rows[0])
	for _, want := range []string{"2962", "user1", "100.0", "26456", "52125", "1.97", "process1"} {
		if !strings.Contains(row, want) {
			t.Errorf("row missing %q: %q", want, row)
		}
	}
}

func TestFormatRowInvalidShowsDashes(t *testing.T) {
	screen, sample := renderFixture()
	row := formatRow(screen, &sample.Rows[1])
	if !strings.Contains(row, "-") {
		t.Fatalf("unmonitored row must show dashes: %q", row)
	}
	if !strings.Contains(row, "hidden") {
		t.Fatal("command still shown")
	}
}

func TestBatchRenderer(t *testing.T) {
	screen, sample := renderFixture()
	var sb strings.Builder
	if err := renderSample(screen, &sb, sample); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "--- t=10s tasks=2") {
		t.Fatalf("timestamp line missing: %q", out)
	}
	if strings.Count(out, "\n") != 4 { // ts + header + 2 rows
		t.Fatalf("line count: %q", out)
	}
}

// TestConnectRendersShortRow: a -connect client renders whatever a
// server sends it. A monitored row with fewer values than the screen
// has columns shows its missing cells as "-", as an unmonitored row
// shows all of them, instead of indexing past the end of the row.
func TestConnectRendersShortRow(t *testing.T) {
	const doc = `{"v":1,"refresh":1,"machine":"m","interval_s":1,"time_s":2,` +
		`"columns":[{"name":"a","header":"A","width":6},{"name":"b","header":"B","width":6}],` +
		`"rows":[{"pid":7,"user":"u","command":"short","cpu_pct":50,"ipc":1,"monitored":true,"values":[1]}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(doc))
	}))
	defer ts.Close()
	mon, err := NewRemoteMonitorWire(ts.URL, "json")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	s, err := mon.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := mon.Render(&sb, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if want := "      7 u         50.0     1.00      - short"; len(lines) != 3 || lines[2] != want {
		t.Fatalf("rendered:\n%s\nwant the last line %q", sb.String(), want)
	}
}

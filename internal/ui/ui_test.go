package ui

import (
	"strings"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
)

func sampleFixture() (*metrics.Screen, *core.Sample) {
	screen := metrics.DefaultScreen()
	sample := &core.Sample{
		Time: 10 * time.Second,
		Rows: []core.Row{
			{
				Info: core.TaskInfo{
					ID: hpm.TaskID{PID: 2962, TID: 2962}, User: "user1",
					Comm: "process1", State: "R",
				},
				CPUPct: 100.0,
				Values: []float64{26456, 52125, 1.97, 0.0},
				Counts: []uint64{26456e6, 52125e6},
				Table:  core.NewEventTable(hpm.EventCycles, hpm.EventInstructions),
				Valid:  true,
			},
			{
				Info: core.TaskInfo{
					ID: hpm.TaskID{PID: 999, TID: 999}, User: "root",
					Comm: "hidden", State: "S",
				},
				CPUPct: 1.5,
				Values: make([]float64, 4),
				Valid:  false,
			},
		},
	}
	return screen, sample
}

func TestHeaderLayout(t *testing.T) {
	screen, _ := sampleFixture()
	h := Header(screen)
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
	screen, sample := sampleFixture()
	row := FormatRow(screen, &sample.Rows[0])
	for _, want := range []string{"2962", "user1", "100.0", "26456", "52125", "1.97", "process1"} {
		if !strings.Contains(row, want) {
			t.Errorf("row missing %q: %q", want, row)
		}
	}
}

func TestFormatRowInvalidShowsDashes(t *testing.T) {
	screen, sample := sampleFixture()
	row := FormatRow(screen, &sample.Rows[1])
	if !strings.Contains(row, "-") {
		t.Fatalf("unmonitored row must show dashes: %q", row)
	}
	if !strings.Contains(row, "hidden") {
		t.Fatal("command still shown")
	}
}

func TestBatchRenderer(t *testing.T) {
	screen, sample := sampleFixture()
	var sb strings.Builder
	br := &BatchRenderer{W: &sb, Timestamps: true}
	if err := br.Render(screen, sample); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "--- t=10s tasks=2") {
		t.Fatalf("timestamp line missing: %q", out)
	}
	if strings.Count(out, "\n") != 4 { // ts + header + 2 rows
		t.Fatalf("line count: %q", out)
	}
	// Without timestamps.
	sb.Reset()
	br.Timestamps = false
	br.Render(screen, sample)
	if strings.Contains(sb.String(), "---") {
		t.Fatal("timestamps must be optional")
	}
}

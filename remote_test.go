package tiptop

import (
	"testing"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/remote"
)

// wireFixture is a two-row wire sample: a monitored task with counter
// deltas and display-ready columns, and an unmonitored one.
func wireFixture(t float64) *remote.Sample {
	return &remote.Sample{
		V:               remote.WireVersion,
		Refresh:         1,
		Machine:         "sim test box",
		IntervalSeconds: 2,
		TimeSeconds:     t,
		Columns: []remote.Column{
			{Name: "ipc", Header: "IPC", Width: 6, Format: "%6.2f"},
			{Name: "dmis", Header: "DMIS", Width: 6, Format: "%6.2f"},
		},
		Rows: []remote.Row{
			{
				PID: 101, TID: 101, User: "alice", Command: "mcf", State: "R",
				CPUPct: 99.5, IPC: 0.7, Monitored: true, StartSeconds: 1.5,
				Values: []float64{0.7, 2.25},
				Events: map[string]uint64{"CYCLES": 1000, "INSTRUCTIONS": 700},
			},
			{
				PID: 102, User: "bob", Command: "idle", CPUPct: 0,
				Monitored: false, Values: []float64{0, 0},
			},
		},
	}
}

// TestWireSampleConversion: a wire sample reaches a recorder through
// the one wire → public and the one public → engine translation.
func TestWireSampleConversion(t *testing.T) {
	cs := publicSample(wireFixture(10)).coreSample()
	if cs.Time != 10*time.Second {
		t.Fatalf("Time = %v", cs.Time)
	}
	if len(cs.Rows) != 2 {
		t.Fatalf("rows = %d", len(cs.Rows))
	}
	r := cs.Rows[0]
	if r.Info.ID.PID != 101 || r.Info.User != "alice" || r.Info.Comm != "mcf" {
		t.Fatalf("row info = %+v", r.Info)
	}
	if r.Info.StartTime != 1500*time.Millisecond {
		t.Fatalf("StartTime = %v", r.Info.StartTime)
	}
	if r.Count(hpm.EventCycles) != 1000 || r.Count(hpm.EventInstructions) != 700 {
		t.Fatalf("counts = %v", r.Counts)
	}
	if !r.Valid || cs.Rows[1].Valid {
		t.Fatal("Valid flags lost in conversion")
	}
}

// TestWireSampleCarriesUnknownEvents: events travel by canonical name,
// so counters this build has never heard of (a newer agent's
// user-defined raw events) survive the wire → engine conversion intact
// instead of being dropped.
func TestWireSampleCarriesUnknownEvents(t *testing.T) {
	s := wireFixture(1)
	s.Rows[0].Events["FUTURE_EVENT"] = 42
	cs := publicSample(s).coreSample()
	if got := cs.Rows[0].Count("FUTURE_EVENT"); got != 42 {
		t.Fatalf("counts = %v, want FUTURE_EVENT carried through", cs.Rows[0].Counts)
	}
}

// TestScreenSynthesis: a RemoteMonitor renders under a screen built
// from the wire columns, rebuilt only when they change.
func TestScreenSynthesis(t *testing.T) {
	var m RemoteMonitor
	m.setColumns(wireFixture(0).Columns)
	sc := m.screen
	if len(sc.Columns) != 2 || sc.Columns[0].Header != "IPC" || sc.Columns[0].Width != 6 {
		t.Fatalf("screen = %+v", sc.Columns[0])
	}
	if m.setColumns(wireFixture(0).Columns); m.screen != sc {
		t.Fatal("screen rebuilt for unchanged columns")
	}
	// Defaults fill in when the wire omits display attributes.
	s := wireFixture(0)
	s.Columns[0].Width = 0
	s.Columns[0].Format = ""
	m.setColumns(s.Columns)
	sc = m.screen
	if sc.Columns[0].Width != 6 || sc.Columns[0].Format != "%8.2f" {
		t.Fatalf("defaults not applied: %+v", sc.Columns[0])
	}
}

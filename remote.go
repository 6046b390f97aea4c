package tiptop

import (
	"fmt"
	"io"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
	"tiptop/internal/remote"
)

// MonitorAPI is the sampling surface shared by the local Monitor and
// the network-attached RemoteMonitor — everything the front ends (the
// TUI loops, the batch renderer, the export sinks) consume, so they run
// unchanged whether the counters are read on this machine or streamed
// from a tiptopd across the network.
type MonitorAPI interface {
	Machine() string
	Interval() time.Duration
	Headers() []string
	Columns() []string
	Sample() (*Sample, error)
	SampleNow() (*Sample, error)
	Render(w io.Writer, s *Sample) error
	Close() error
}

var (
	_ MonitorAPI = (*Monitor)(nil)
	_ MonitorAPI = (*RemoteMonitor)(nil)
)

// ColumnSpec describes one metric column of a monitor's active screen,
// including the display attributes (width, printf format) remote
// renderers need to reproduce the local output byte-for-byte.
type ColumnSpec struct {
	Name   string
	Header string
	Format string
	Width  int
}

// ColumnSpecs returns the active screen's column descriptions.
func (m *Monitor) ColumnSpecs() []ColumnSpec {
	cols := m.session.Screen().Columns
	out := make([]ColumnSpec, len(cols))
	for i, c := range cols {
		out[i] = ColumnSpec{Name: c.Name, Header: c.Header, Format: c.Format, Width: c.Width}
	}
	return out
}

// WireSample converts one of the monitor's samples to the wire
// representation tiptopd serves — the single place the public sample →
// wire translation lives (the daemon's publish loop and the examples
// all go through it).
func (m *Monitor) WireSample(s *Sample) *remote.Sample {
	ws := &remote.Sample{
		Machine:         m.Machine(),
		IntervalSeconds: m.Interval().Seconds(),
		TimeSeconds:     s.Time.Seconds(),
		Dropped:         s.Dropped,
		Columns:         m.wireCols,
		Rows:            make([]remote.Row, 0, len(s.Rows)),
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		ws.Rows = append(ws.Rows, remote.Row{
			PID:          r.PID,
			TID:          r.TID,
			User:         r.User,
			Command:      r.Command,
			State:        r.State,
			CPUPct:       r.CPUPct,
			IPC:          r.IPC,
			Monitored:    r.Monitored,
			StartSeconds: r.Start.Seconds(),
			Coverage:     core.ElideCoverage(r.Coverage),
			Values:       r.Columns,
			Events:       r.Events,
		})
	}
	return ws
}

// RemoteMonitor is a Monitor whose engine runs in a tiptopd somewhere
// else: Sample blocks on the daemon's /api/v1/stream push (pacing the
// caller to the remote refresh cadence), SampleNow polls the latest
// refresh, and Render reproduces the remote screen byte-for-byte from
// the wire column specs. Everything that consumes a MonitorAPI — the
// interactive TUI, batch mode, CSV/JSONL sinks, a subscribed Recorder —
// works against it unchanged.
type RemoteMonitor struct {
	c      *remote.Client
	screen *metrics.Screen
	recs   []*Recorder
}

// NewRemoteMonitor attaches to a tiptopd at url ("host:port" or a full
// URL, as served by tiptopd -addr).
func NewRemoteMonitor(url string) (*RemoteMonitor, error) {
	return NewRemoteMonitorWire(url, "")
}

// NewRemoteMonitorWire attaches like NewRemoteMonitor and selects the
// stream encoding: "" (the default) or "binary" negotiates the
// length-prefixed binary frame, transparently falling back to SSE +
// JSON against daemons that predate it; "json" forces SSE (tiptop
// -connect -wire json).
func NewRemoteMonitorWire(url, wire string) (*RemoteMonitor, error) {
	c, err := remote.DialWith(url, remote.DialOptions{Wire: wire})
	if err != nil {
		return nil, err
	}
	m := &RemoteMonitor{c: c}
	if ws := c.Latest(); ws != nil {
		m.screen = ws.Screen()
	}
	return m, nil
}

// Machine describes the remote machine and where it is monitored from.
func (m *RemoteMonitor) Machine() string {
	return fmt.Sprintf("%s @ %s", m.c.Machine(), m.c.Host())
}

// Interval returns the remote monitor's refresh period.
func (m *RemoteMonitor) Interval() time.Duration { return m.c.Interval() }

// Headers returns the remote screen's column headings.
func (m *RemoteMonitor) Headers() []string {
	if ws := m.c.Latest(); ws != nil {
		return ws.Headers()
	}
	return nil
}

// Columns returns the remote screen's column names.
func (m *RemoteMonitor) Columns() []string {
	if ws := m.c.Latest(); ws != nil {
		return ws.ColumnNames()
	}
	return nil
}

// Sample blocks until the remote daemon publishes its next refresh.
func (m *RemoteMonitor) Sample() (*Sample, error) {
	ws, err := m.c.Next()
	if err != nil {
		return nil, err
	}
	return m.convert(ws), nil
}

// SampleNow fetches the remote daemon's latest refresh without waiting
// for a new one.
func (m *RemoteMonitor) SampleNow() (*Sample, error) {
	ws, err := m.c.Poll()
	if err != nil {
		return nil, err
	}
	return m.convert(ws), nil
}

// convert turns a wire sample into the public representation, keeps the
// synthesized screen current, and feeds subscribed recorders — the same
// observer contract the local engine honors. The rows alias the wire
// sample's Values and Events: the client decoded it for this caller
// alone, and recorders only read.
func (m *RemoteMonitor) convert(ws *remote.Sample) *Sample {
	m.screen = ws.Screen()
	out := &Sample{Time: ws.Time(), Rows: make([]Row, 0, len(ws.Rows)), Dropped: ws.Dropped}
	for i := range ws.Rows {
		r := &ws.Rows[i]
		out.Rows = append(out.Rows, Row{
			PID:       r.PID,
			TID:       r.TID,
			User:      r.User,
			Command:   r.Command,
			State:     r.State,
			CPUPct:    r.CPUPct,
			IPC:       r.IPC,
			Columns:   r.Values,
			Coverage:  core.ExactCoverage(r.Coverage),
			Monitored: r.Monitored,
			Start:     time.Duration(r.StartSeconds * float64(time.Second)),
			Events:    r.Events,
		})
	}
	if len(m.recs) > 0 {
		cs := ws.CoreSample()
		for _, rec := range m.recs {
			rec.h.Observe(cs)
		}
	}
	return out
}

// Subscribe attaches a Recorder: every subsequent Sample/SampleNow
// feeds it, exactly as with a local Monitor. Not safe to call
// concurrently with Sample.
func (m *RemoteMonitor) Subscribe(r *Recorder) {
	if r == nil {
		return
	}
	if ws := m.c.Latest(); ws != nil {
		r.h.SetColumns(ws.ColumnNames())
	}
	m.recs = append(m.recs, r)
}

// Unsubscribe detaches a previously subscribed recorder.
func (m *RemoteMonitor) Unsubscribe(r *Recorder) {
	for i, have := range m.recs {
		if have == r {
			m.recs = append(m.recs[:i], m.recs[i+1:]...)
			return
		}
	}
}

// Render writes the sample as a batch-mode text block, byte-identical
// to the remote daemon rendering the same refresh locally.
func (m *RemoteMonitor) Render(w io.Writer, s *Sample) error {
	screen := m.screen
	if screen == nil {
		screen = &metrics.Screen{Name: "remote"}
	}
	return renderSample(screen, w, s)
}

// Close detaches from the remote daemon.
func (m *RemoteMonitor) Close() error { return m.c.Close() }

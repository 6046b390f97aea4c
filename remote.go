package tiptop

import (
	"fmt"
	"io"
	"slices"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
	"tiptop/internal/remote"
)

// MonitorAPI is the sampling surface shared by the local Monitor and
// the network-attached RemoteMonitor — everything the front ends (the
// TUI loops, the batch renderer, the CSV/JSONL sinks, a recorder teed
// into a store) consume, so they run
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
	Subscribe(r *Recorder)
	Close() error
}

var (
	_ MonitorAPI = (*Monitor)(nil)
	_ MonitorAPI = (*RemoteMonitor)(nil)
)

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
	c *remote.Client
	// screen is the render-only screen synthesized from cols, the wire
	// columns of the latest sample: rebuilt only when they change.
	screen *metrics.Screen
	cols   []remote.Column
	recs   []*Recorder
	follow follower
}

// NewRemoteMonitor attaches to a tiptopd at url ("host:port" or a full
// URL, as served by tiptopd -addr).
func NewRemoteMonitor(url string) (*RemoteMonitor, error) {
	return NewRemoteMonitorWire(url, "")
}

// NewRemoteMonitorWire attaches like NewRemoteMonitor and selects the
// stream encoding: "" (NewRemoteMonitor's) or "binary" negotiates the
// length-prefixed binary frame, transparently falling back to SSE +
// JSON against daemons that predate it; "json" forces SSE, the stream a
// browser or curl reads.
func NewRemoteMonitorWire(url, wire string) (*RemoteMonitor, error) {
	c, err := remote.DialWith(url, remote.DialOptions{Wire: wire})
	if err != nil {
		return nil, err
	}
	m := &RemoteMonitor{c: c, screen: &metrics.Screen{Name: "remote"}}
	if ws := c.Latest(); ws != nil {
		m.setColumns(ws.Columns)
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
// synthesized screen current, and feeds subscribed recorders through the
// follow step, as Daemon.observe feeds an agent's; the returned sample
// keeps the daemon's own time.
func (m *RemoteMonitor) convert(ws *remote.Sample) *Sample {
	m.setColumns(ws.Columns)
	out := publicSample(ws)
	m.follow.step(ws, out, m.recs...)
	return out
}

// setColumns rebuilds the render-only screen when the wire columns
// differ from the ones it was built from: same headers, widths and
// formats as the serving side, no expressions (the values were computed
// remotely).
func (m *RemoteMonitor) setColumns(cols []remote.Column) {
	if slices.Equal(m.cols, cols) {
		return
	}
	m.cols = slices.Clone(cols)
	m.screen = &metrics.Screen{Name: "remote"}
	for _, c := range cols {
		m.screen.Columns = append(m.screen.Columns, metrics.NewColumn(c.Name, c.Header, c.Format, c.Width))
	}
}

// follower is the one step a followed daemon's refreshes reach recorders
// through — a RemoteMonitor's subscribers, an aggregating Daemon's agent
// machines. Only the goroutine reading the followed stream touches it.
type follower struct {
	cols         []string // the column names last pushed into the recorders
	refresh      uint64   // the last refresh recorded, and its own clock
	raw          float64
	last, offset time.Duration // its time on the followed clock, and the shift to it
	observed     bool
}

// step records out, the public form of ws, in recs and returns its time
// on the followed clock; without recorders it does nothing and returns
// the daemon's own. A changed column set (a restarted daemon serving
// another screen) is pushed first. The followed clock is monotone
// across the daemon's restarts: a refresh at or before the last one
// (its monitor clock restarted too) moves the offset so that it lands
// one advertised interval after that one — else a store would nudge
// every such refresh 1 ms past its horizon until the new clock caught
// up, and a recorder's rate window would see time go back. The refresh
// last recorded, seen again (a poll that found nothing newer), keeps
// its time.
func (f *follower) step(ws *remote.Sample, out *Sample, recs ...*Recorder) time.Duration {
	if len(recs) == 0 {
		return out.Time
	}
	t := f.last
	if !f.observed || ws.Refresh != f.refresh || ws.TimeSeconds != f.raw {
		if t = ws.Time() + f.offset; f.observed && t <= f.last {
			f.offset += f.last + ws.Interval() - t
			t = f.last + ws.Interval()
		}
		f.refresh, f.raw = ws.Refresh, ws.TimeSeconds
		f.last, f.observed = t, true
	}
	// Only a change allocates: the steady state pushes nothing.
	if !slices.EqualFunc(f.cols, ws.Columns, func(name string, c remote.Column) bool { return name == c.Name }) {
		f.cols = ws.ColumnNames()
		for _, rec := range recs {
			rec.h.SetColumns(f.cols)
		}
	}
	cs := out.coreSample()
	cs.Time = t
	for _, rec := range recs {
		rec.store() // a recorder without one records into its own
		rec.h.Observe(cs)
	}
	return t
}

// publicSample is the one wire → public translation, behind the
// RemoteMonitor and an aggregating Daemon's agents. The rows alias the
// wire sample's Values and Events: the wire sample was decoded for this
// caller alone, and recorders only read.
func publicSample(ws *remote.Sample) *Sample {
	out := &Sample{Time: ws.Time(), Rows: make([]Row, len(ws.Rows)), Dropped: ws.Dropped}
	for i := range ws.Rows {
		r := &ws.Rows[i]
		out.Rows[i] = Row{
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
	return renderSample(m.screen, w, s)
}

// Close detaches from the remote daemon.
func (m *RemoteMonitor) Close() error { return m.c.Close() }

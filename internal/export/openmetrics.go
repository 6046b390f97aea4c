package export

import (
	"io"
	"sort"
	"strconv"

	"tiptop/internal/core"
	"tiptop/internal/history"
)

// FleetMachine is one machine's contribution to an exposition.
type FleetMachine struct {
	// Label identifies the machine ("host:port" of the agent). Every
	// sample of the machine carries it as a "machine" label; empty
	// omits the label, which is the single-machine exposition.
	Label string
	// Up reports whether the agent is currently streaming.
	Up bool
	// Snapshot is the machine's recorded state.
	Snapshot *history.Snapshot
}

// WriteOpenMetrics renders a recorder snapshot as OpenMetrics /
// Prometheus text exposition: machine-wide, per-user, per-command and
// per-task gauges and counters. Output is deterministically ordered
// (sorted label values) so scrapes diff cleanly.
func WriteOpenMetrics(w io.Writer, snap *history.Snapshot) error {
	e := newOMWriter(w)
	e.family("tiptop_refreshes_total", "counter", "Refreshes recorded since the recorder started.")
	e.sample("tiptop_refreshes_total", nil, nil, float64(snap.Refreshes))
	e.family("tiptop_time_seconds", "gauge", "Monitor clock time of the last refresh.")
	e.sample("tiptop_time_seconds", nil, nil, snap.TimeSeconds)
	e.family("tiptop_tasks", "gauge", "Monitored tasks in the last refresh.")
	e.sample("tiptop_tasks", nil, nil, float64(snap.Machine.Tasks))
	e.machines([]FleetMachine{{Snapshot: snap}}, len(snap.Columns) > 0)
	return e.finish()
}

// WriteFleetOpenMetrics renders a merged, machine-labelled OpenMetrics
// exposition over many agents: the same families the single-machine
// exposition uses (it is the same writer), every sample carrying a
// "machine" label, plus fleet health gauges (tiptop_fleet_agents,
// tiptop_agent_up). Each family is declared once with the samples of
// all machines under it, ordered by machine label (then
// user/command/task), so scrapes diff cleanly.
func WriteFleetOpenMetrics(w io.Writer, machines []FleetMachine) error {
	ms := append([]FleetMachine(nil), machines...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Label < ms[j].Label })

	e := newOMWriter(w)
	e.family("tiptop_fleet_agents", "gauge", "Agents joined into this aggregator.")
	e.sample("tiptop_fleet_agents", nil, nil, float64(len(ms)))
	e.machineSets(ms)
	e.perMachine("tiptop_agent_up", "gauge", "Whether the agent is currently streaming (1) or down (0).", ms, func(m *FleetMachine) float64 {
		if m.Up {
			return 1
		}
		return 0
	})
	e.perMachine("tiptop_agent_refreshes_total", "counter", "Refreshes recorded from the agent.", ms, func(m *FleetMachine) float64 {
		return float64(m.Snapshot.Refreshes)
	})
	e.perMachine("tiptop_agent_time_seconds", "gauge", "Agent monitor clock time of its last refresh.", ms, func(m *FleetMachine) float64 {
		return m.Snapshot.TimeSeconds
	})
	e.machines(ms, true)
	return e.finish()
}

// omChunk is how much exposition text accumulates before it is handed
// to the destination writer.
const omChunk = 32 << 10

// omWriter appends exposition text into one buffer, written out in
// omChunk pieces, and renders label blocks once per label set rather
// than once per sample.
type omWriter struct {
	w   io.Writer
	b   []byte
	err error
	// sets holds the label blocks of the families being written, aggs
	// the aggregates parallel to them.
	sets labelSets
	aggs []history.Aggregate
	cols labelSets
}

func newOMWriter(w io.Writer) *omWriter {
	return &omWriter{w: w, b: make([]byte, 0, omChunk+1024)}
}

func (e *omWriter) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *omWriter) finish() error {
	e.b = append(e.b, "# EOF\n"...)
	e.flush()
	return e.err
}

func (e *omWriter) family(name, typ, help string) {
	b := append(e.b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	e.b = append(b, '\n')
}

// sample writes one sample line. labels is an open label block (see
// labelSets) and extra a continuation of it; both empty is an
// unlabelled sample.
func (e *omWriter) sample(name string, labels, extra []byte, v float64) {
	b := append(e.b, name...)
	if len(labels) > 0 {
		b = append(b, labels...)
		b = append(b, extra...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	e.b = append(b, '\n')
	if len(e.b) >= omChunk {
		e.flush()
	}
}

// labelSets is a run of rendered label blocks in one backing array:
// block i is b[ends[i]:ends[i+1]], ends[0] being 0 (reset before use).
// A block is kept open — `{machine="a",pid="1"`, no closing brace — so
// a sample can extend it (the column label); an empty block labels
// nothing.
type labelSets struct {
	b    []byte
	ends []int
}

func (l *labelSets) reset() { l.b, l.ends = l.b[:0], append(l.ends[:0], 0) }

// key starts a label in the block being built.
func (l *labelSets) key(k string) {
	sep := byte(',')
	if len(l.b) == l.ends[len(l.ends)-1] {
		sep = '{'
	}
	l.b = append(l.b, sep)
	l.b = append(l.b, k...)
	l.b = append(l.b, '=', '"')
}

func (l *labelSets) str(k, v string) {
	l.key(k)
	l.b = append(AppendEscapedLabel(l.b, v), '"')
}

func (l *labelSets) int(k string, v int) {
	l.key(k)
	l.b = append(strconv.AppendInt(l.b, int64(v), 10), '"')
}

// machine adds the machine label, which an unlabelled machine omits.
func (l *labelSets) machine(label string) {
	if label != "" {
		l.str("machine", label)
	}
}

// end closes the block being built.
func (l *labelSets) end() { l.ends = append(l.ends, len(l.b)) }

func (l *labelSets) at(i int) []byte { return l.b[l.ends[i]:l.ends[i+1]] }

// machineSets makes e.sets one block per machine.
func (e *omWriter) machineSets(ms []FleetMachine) {
	e.sets.reset()
	for i := range ms {
		e.sets.machine(ms[i].Label)
		e.sets.end()
	}
}

// perMachine writes a family of one sample per machine over the blocks
// machineSets built.
func (e *omWriter) perMachine(name, typ, help string, ms []FleetMachine, get func(*FleetMachine) float64) {
	e.family(name, typ, help)
	for i := range ms {
		e.sample(name, e.sets.at(i), nil, get(&ms[i]))
	}
}

// machines writes what every exposition shares: the machine, user and
// command aggregates and the per-task families of each machine. The
// caller decides whether tiptop_task_metric is declared: the fleet
// always does, a single machine only when its screen has columns.
func (e *omWriter) machines(ms []FleetMachine, metricFamily bool) {
	e.machineSets(ms)
	e.aggs = e.aggs[:0]
	for i := range ms {
		e.aggs = append(e.aggs, ms[i].Snapshot.Machine)
	}
	e.aggFamilies("machine")

	e.keyedAggs(ms, "user", func(s *history.Snapshot) map[string]history.Aggregate { return s.Users })
	e.aggFamilies("user")
	e.keyedAggs(ms, "command", func(s *history.Snapshot) map[string]history.Aggregate { return s.Commands })
	e.aggFamilies("command")

	// Per-task gauges: the Figure 1 screen as a scrape. One label block
	// per task serves every family below.
	e.sets.reset()
	for i := range ms {
		for j := range ms[i].Snapshot.Tasks {
			t := &ms[i].Snapshot.Tasks[j]
			e.sets.machine(ms[i].Label)
			e.sets.int("pid", t.PID)
			e.sets.int("tid", t.TID)
			e.sets.str("user", t.User)
			e.sets.str("command", t.Command)
			e.sets.end()
		}
	}
	e.perTask("tiptop_task_cpu_pct", "OS CPU usage of the task over the last refresh.", ms,
		func(t *history.TaskSnap) float64 { return t.CPUPct })
	e.perTask("tiptop_task_ipc", "Instructions per cycle of the task over the last refresh.", ms,
		func(t *history.TaskSnap) float64 { return t.IPC })
	e.perTask("tiptop_task_coverage", "Counted fraction of the last refresh interval (1 = exact, lower = multiplexed extrapolation).", ms,
		func(t *history.TaskSnap) float64 { return core.ExactCoverage(t.Coverage) })
	if !metricFamily {
		return
	}
	e.family("tiptop_task_metric", "gauge", "Screen column value of the task (label \"column\" names it).")
	k := 0
	for i := range ms {
		snap := ms[i].Snapshot
		e.cols.reset()
		for _, col := range snap.Columns {
			e.cols.b = append(AppendEscapedLabel(append(e.cols.b, `,column="`...), col), '"')
			e.cols.end()
		}
		for j := range snap.Tasks {
			values := snap.Tasks[j].Values
			for c := 0; c < len(snap.Columns) && c < len(values); c++ {
				e.sample("tiptop_task_metric", e.sets.at(k), e.cols.at(c), values[c])
			}
			k++
		}
	}
}

// perTask writes one gauge family of one sample per task over the task
// label blocks in e.sets.
func (e *omWriter) perTask(name, help string, ms []FleetMachine, get func(*history.TaskSnap) float64) {
	e.family(name, "gauge", help)
	k := 0
	for i := range ms {
		tasks := ms[i].Snapshot.Tasks
		for j := range tasks {
			e.sample(name, e.sets.at(k), nil, get(&tasks[j]))
			k++
		}
	}
}

// keyedAggs makes e.sets and e.aggs each machine's aggregates of one
// kind ("user" or "command"), sorted by key within the machine.
func (e *omWriter) keyedAggs(ms []FleetMachine, key string, of func(*history.Snapshot) map[string]history.Aggregate) {
	e.sets.reset()
	e.aggs = e.aggs[:0]
	for i := range ms {
		m := of(ms[i].Snapshot)
		for _, k := range sortedKeys(m) {
			e.sets.machine(ms[i].Label)
			e.sets.str(key, k)
			e.sets.end()
			e.aggs = append(e.aggs, m[k])
		}
	}
}

// aggField is one exported Aggregate field.
type aggField struct {
	suffix, typ, help string
	get               func(history.Aggregate) float64
}

// aggFields lists the metric families an Aggregate expands into.
var aggFields = []aggField{
	{"tasks", "gauge", "Tasks in the last refresh.", func(a history.Aggregate) float64 { return float64(a.Tasks) }},
	{"cpu_pct", "gauge", "Summed OS CPU usage over the last refresh.", func(a history.Aggregate) float64 { return a.CPUPct }},
	{"ipc", "gauge", "Aggregate instructions per cycle of the last refresh.", func(a history.Aggregate) float64 { return a.IPC }},
	{"window_ipc", "gauge", "Aggregate instructions per cycle over the rate window.", func(a history.Aggregate) float64 { return a.WindowIPC }},
	{"window_mips", "gauge", "Million instructions per second over the rate window.", func(a history.Aggregate) float64 { return a.WindowMIPS }},
	{"instructions_total", "counter", "Instructions counted since recording started.", func(a history.Aggregate) float64 { return float64(a.Instructions) }},
	{"cycles_total", "counter", "Cycles counted since recording started.", func(a history.Aggregate) float64 { return float64(a.Cycles) }},
	{"cache_misses_total", "counter", "Last-level cache misses since recording started.", func(a history.Aggregate) float64 { return float64(a.CacheMisses) }},
}

// aggFamilies writes one metric family per Aggregate field for a scope
// ("machine", "user", "command"), one sample per aggregate in e.aggs
// labelled by the parallel block in e.sets.
func (e *omWriter) aggFamilies(scope string) {
	for _, f := range aggFields {
		name := "tiptop_" + scope + "_" + f.suffix
		e.family(name, f.typ, f.help)
		for i := range e.aggs {
			e.sample(name, e.sets.at(i), nil, f.get(e.aggs[i]))
		}
	}
}

// AppendEscapedLabel appends a label value escaped per the exposition
// format, which defines exactly three escapes (\\, \", \n); every other
// byte — control characters, DEL, UTF-8 — passes through raw.
func AppendEscapedLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

func sortedKeys(m map[string]history.Aggregate) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package export renders the recording subsystem's aggregates in the
// OpenMetrics / Prometheus text format for scrapers: an Encoder keeps
// each task's, user's and command's label block between refreshes, so
// a scrape while membership stands re-renders only the values. The
// line-oriented CSV/JSONL sinks of the -b mode live in cmd/tiptop.
package export

import (
	"cmp"
	"io"
	"math"
	"slices"
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
	// View is the machine's recorded state.
	View *history.View
}

// omChunk is how much exposition text accumulates before it is handed
// to the destination writer.
const omChunk = 32 << 10

// Encoder renders recorder views as OpenMetrics / Prometheus text
// exposition: machine-wide, per-user, per-command and per-task gauges
// and counters, deterministically ordered (sorted label values) so
// scrapes diff cleanly. It is meant to be kept: text is appended into
// one buffer written out in omChunk pieces, and the label blocks of
// every user, command and task are rendered once and reused for as long
// as it is handed the same views at the same generation, so a
// steady-state encode formats values only and allocates nothing. The
// zero value is ready; an Encoder is not safe for concurrent use.
type Encoder struct {
	w   io.Writer
	b   []byte
	err error
	// One open label block per machine, and per user, command and task
	// of every machine in exposition order; seen is what they were
	// rendered from, and stale that this encode renders them again.
	// cols is rebuilt per machine, per encode.
	machines, users, commands, tasks, cols labelSets
	seen                                   []rendered
	stale                                  bool
	solo                                   [1]FleetMachine
	aggs                                   []*history.Aggregate
	encodes, renders                       uint64
}

// rendered identifies the state of one machine's view that label blocks
// were rendered from.
type rendered struct {
	view  *history.View
	label string
	gen   uint64
}

// Stats counts the expositions written and how many of them had to
// render label blocks again (a view's generation moved: the recorder had
// re-sorted its keys or its live tasks).
func (e *Encoder) Stats() (encodes, renders uint64) { return e.encodes, e.renders }

// Write renders the single-machine exposition of a view.
func (e *Encoder) Write(w io.Writer, v *history.View) error {
	e.solo[0].View = v
	ms := e.solo[:]
	e.begin(w, ms)
	e.family("tiptop_refreshes_total", "counter", "Refreshes recorded since the recorder started.")
	e.sample("tiptop_refreshes_total", nil, nil, float64(v.Refreshes))
	e.family("tiptop_time_seconds", "gauge", "Monitor clock time of the last refresh.")
	e.sample("tiptop_time_seconds", nil, nil, v.TimeSeconds)
	e.family("tiptop_tasks", "gauge", "Monitored tasks in the last refresh.")
	e.sample("tiptop_tasks", nil, nil, float64(v.Machine.Tasks))
	e.body(ms, len(v.Columns) > 0)
	return e.finish()
}

// WriteFleet renders a merged, machine-labelled exposition over many
// agents: the same families the single-machine exposition uses (it is
// the same writer), every sample carrying a "machine" label, plus fleet
// health gauges (tiptop_fleet_agents, tiptop_agent_up). Each family is
// declared once with the samples of all machines under it, ordered by
// machine label (then user/command/task), so scrapes diff cleanly.
func (e *Encoder) WriteFleet(w io.Writer, ms []FleetMachine) error {
	byLabel := func(a, b FleetMachine) int { return cmp.Compare(a.Label, b.Label) }
	if !slices.IsSortedFunc(ms, byLabel) {
		ms = slices.Clone(ms)
		slices.SortFunc(ms, byLabel)
	}
	e.begin(w, ms)
	e.family("tiptop_fleet_agents", "gauge", "Agents joined into this aggregator.")
	e.sample("tiptop_fleet_agents", nil, nil, float64(len(ms)))
	e.perMachine("tiptop_agent_up", "gauge", "Whether the agent is currently streaming (1) or down (0).", ms, func(m *FleetMachine) float64 {
		if m.Up {
			return 1
		}
		return 0
	})
	e.perMachine("tiptop_agent_refreshes_total", "counter", "Refreshes recorded from the agent.", ms, func(m *FleetMachine) float64 {
		return float64(m.View.Refreshes)
	})
	e.perMachine("tiptop_agent_time_seconds", "gauge", "Agent monitor clock time of its last refresh.", ms, func(m *FleetMachine) float64 {
		return m.View.TimeSeconds
	})
	e.body(ms, true)
	return e.finish()
}

// begin starts an exposition into w and decides whether the label
// blocks stand: only for the same views at the generation they were
// rendered from.
func (e *Encoder) begin(w io.Writer, ms []FleetMachine) {
	e.w, e.err, e.b = w, nil, e.b[:0]
	e.encodes++
	e.stale = len(e.seen) != len(ms)
	for i := 0; !e.stale && i < len(ms); i++ {
		e.stale = e.seen[i] != rendered{ms[i].View, ms[i].Label, ms[i].View.Gen}
	}
	if !e.stale {
		return
	}
	e.renders++
	e.seen = e.seen[:0]
	e.machines.reset()
	for i := range ms {
		e.seen = append(e.seen, rendered{ms[i].View, ms[i].Label, ms[i].View.Gen})
		e.machines.machine(ms[i].Label)
		e.machines.end()
	}
}

func usersOf(v *history.View) []history.KeyedAggregate    { return v.Users }
func commandsOf(v *history.View) []history.KeyedAggregate { return v.Commands }

func (e *Encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *Encoder) finish() error {
	e.b = append(e.b, "# EOF\n"...)
	e.flush()
	e.w = nil
	return e.err
}

func (e *Encoder) family(name, typ, help string) {
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
func (e *Encoder) sample(name string, labels, extra []byte, v float64) {
	b := append(e.b, name...)
	if len(labels) > 0 {
		b = append(b, labels...)
		b = append(b, extra...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	e.b = append(appendValue(b, v), '\n')
	if len(e.b) >= omChunk {
		e.flush()
	}
}

// appendValue appends what strconv.AppendFloat(b, v, 'g', -1, 64) does.
// An integer below 2^53 — a third of an exposition's values — needs no
// shortest-digits search: its own digits, less trailing zeros, are the
// shortest that read back as v, printed plain below 1e6 and as
// d.ddde+XX from there on, the format's switch to exponents.
func appendValue(b []byte, v float64) []byte {
	n := int64(v)
	if !(v > -1<<53 && v < 1<<53) || float64(n) != v || (n == 0 && math.Signbit(v)) {
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	if n > -1e6 && n < 1e6 {
		return strconv.AppendInt(b, n, 10)
	}
	if n < 0 {
		b, n = append(b, '-'), -n
	}
	var digits [16]byte // 2^53 has 16
	i := len(digits)
	for ; n > 0; n /= 10 {
		i--
		digits[i] = byte('0' + n%10)
	}
	exp, last := len(digits)-1-i, len(digits)
	for digits[last-1] == '0' {
		last--
	}
	b = append(b, digits[i])
	if last > i+1 {
		b = append(append(b, '.'), digits[i+1:last]...)
	}
	return append(b, 'e', '+', byte('0'+exp/10), byte('0'+exp%10))
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

// perMachine writes a family of one sample per machine.
func (e *Encoder) perMachine(name, typ, help string, ms []FleetMachine, get func(*FleetMachine) float64) {
	e.family(name, typ, help)
	for i := range ms {
		e.sample(name, e.machines.at(i), nil, get(&ms[i]))
	}
}

// body writes what every exposition shares: the machine, user and
// command aggregates and the per-task families of each machine. The
// caller decides whether tiptop_task_metric is declared: the fleet
// always does, a single machine only when its screen has columns.
func (e *Encoder) body(ms []FleetMachine, metricFamily bool) {
	e.aggs = e.aggs[:0]
	for i := range ms {
		e.aggs = append(e.aggs, &ms[i].View.Machine)
	}
	e.aggFamilies(machineFamilies, &e.machines)
	e.keyedAggs(ms, "user", &e.users, usersOf)
	e.aggFamilies(userFamilies, &e.users)
	e.keyedAggs(ms, "command", &e.commands, commandsOf)
	e.aggFamilies(commandFamilies, &e.commands)

	// Per-task gauges: the Figure 1 screen as a scrape. One label block
	// per task serves every family below.
	if e.stale {
		e.tasks.reset()
		for i := range ms {
			for j := range ms[i].View.Tasks {
				t := &ms[i].View.Tasks[j]
				e.tasks.machine(ms[i].Label)
				e.tasks.int("pid", t.PID)
				e.tasks.int("tid", t.TID)
				e.tasks.str("user", t.User)
				e.tasks.str("command", t.Command)
				e.tasks.end()
			}
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
		v := ms[i].View
		e.cols.reset()
		for _, col := range v.Columns {
			e.cols.b = append(AppendEscapedLabel(append(e.cols.b, `,column="`...), col), '"')
			e.cols.end()
		}
		for j := range v.Tasks {
			values := v.Tasks[j].Values
			for c := 0; c < len(v.Columns) && c < len(values); c++ {
				e.sample("tiptop_task_metric", e.tasks.at(k), e.cols.at(c), values[c])
			}
			k++
		}
	}
}

// perTask writes one gauge family of one sample per task over the task
// label blocks.
func (e *Encoder) perTask(name, help string, ms []FleetMachine, get func(*history.TaskSnap) float64) {
	e.family(name, "gauge", help)
	k := 0
	for i := range ms {
		tasks := ms[i].View.Tasks
		for j := range tasks {
			e.sample(name, e.tasks.at(k), nil, get(&tasks[j]))
			k++
		}
	}
}

// keyedAggs makes e.aggs each machine's aggregates of one kind ("user"
// or "command") and, when stale, sets their label blocks parallel to it.
func (e *Encoder) keyedAggs(ms []FleetMachine, key string, sets *labelSets, of func(*history.View) []history.KeyedAggregate) {
	e.aggs = e.aggs[:0]
	if e.stale {
		sets.reset()
	}
	for i := range ms {
		keyed := of(ms[i].View)
		for j := range keyed {
			e.aggs = append(e.aggs, &keyed[j].Aggregate)
			if e.stale {
				sets.machine(ms[i].Label)
				sets.str(key, keyed[j].Key)
				sets.end()
			}
		}
	}
}

// aggField is one exported Aggregate field.
type aggField struct {
	suffix, typ, help string
	get               func(*history.Aggregate) float64
}

// aggFields lists the metric families an Aggregate expands into.
var aggFields = []aggField{
	{"tasks", "gauge", "Tasks in the last refresh.", func(a *history.Aggregate) float64 { return float64(a.Tasks) }},
	{"cpu_pct", "gauge", "Summed OS CPU usage over the last refresh.", func(a *history.Aggregate) float64 { return a.CPUPct }},
	{"ipc", "gauge", "Aggregate instructions per cycle of the last refresh.", func(a *history.Aggregate) float64 { return a.IPC }},
	{"window_ipc", "gauge", "Aggregate instructions per cycle over the rate window.", func(a *history.Aggregate) float64 { return a.WindowIPC }},
	{"window_mips", "gauge", "Million instructions per second over the rate window.", func(a *history.Aggregate) float64 { return a.WindowMIPS }},
	{"instructions_total", "counter", "Instructions counted since recording started.", func(a *history.Aggregate) float64 { return float64(a.Instructions) }},
	{"cycles_total", "counter", "Cycles counted since recording started.", func(a *history.Aggregate) float64 { return float64(a.Cycles) }},
	{"cache_misses_total", "counter", "Last-level cache misses since recording started.", func(a *history.Aggregate) float64 { return float64(a.CacheMisses) }},
}

// The family names of aggFields per scope, parallel to it.
var machineFamilies, userFamilies, commandFamilies = familiesOf("machine"), familiesOf("user"), familiesOf("command")

func familiesOf(scope string) []string {
	names := make([]string, len(aggFields))
	for i, f := range aggFields {
		names[i] = "tiptop_" + scope + "_" + f.suffix
	}
	return names
}

// aggFamilies writes one metric family per Aggregate field, one sample
// per aggregate in e.aggs labelled by the parallel block in sets.
func (e *Encoder) aggFamilies(names []string, sets *labelSets) {
	for f, name := range names {
		e.family(name, aggFields[f].typ, aggFields[f].help)
		for i, a := range e.aggs {
			e.sample(name, sets.at(i), nil, aggFields[f].get(a))
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

package export

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"tiptop/internal/history"
)

// The exposition writer as it stood before the append-based one (one
// bufio write, one scratch slice and one label slice per sample), kept
// as the byte-for-byte reference the new writer is tested against. The
// fleet half differs from the old code in one place: it emits the
// tiptop_task_coverage family its doc comment always promised.

func refWriteOpenMetrics(w io.Writer, snap *history.Snapshot) error {
	bw := bufio.NewWriter(w)
	e := &omEncoder{w: bw}

	e.family("tiptop_refreshes_total", "counter", "Refreshes recorded since the recorder started.")
	e.sample("tiptop_refreshes_total", nil, float64(snap.Refreshes))
	e.family("tiptop_time_seconds", "gauge", "Monitor clock time of the last refresh.")
	e.sample("tiptop_time_seconds", nil, snap.TimeSeconds)
	e.family("tiptop_tasks", "gauge", "Monitored tasks in the last refresh.")
	e.sample("tiptop_tasks", nil, float64(snap.Machine.Tasks))

	e.aggFamilies("machine", [][]label{nil}, []history.Aggregate{snap.Machine})

	users := sortedKeys(snap.Users)
	sets := make([][]label, len(users))
	aggs := make([]history.Aggregate, len(users))
	for i, u := range users {
		sets[i] = []label{{"user", u}}
		aggs[i] = snap.Users[u]
	}
	e.aggFamilies("user", sets, aggs)

	cmds := sortedKeys(snap.Commands)
	sets = make([][]label, len(cmds))
	aggs = make([]history.Aggregate, len(cmds))
	for i, c := range cmds {
		sets[i] = []label{{"command", c}}
		aggs[i] = snap.Commands[c]
	}
	e.aggFamilies("command", sets, aggs)

	// Per-task gauges: the Figure 1 screen as a scrape.
	e.family("tiptop_task_cpu_pct", "gauge", "OS CPU usage of the task over the last refresh.")
	for _, t := range snap.Tasks {
		e.sample("tiptop_task_cpu_pct", taskLabels(t), t.CPUPct)
	}
	e.family("tiptop_task_ipc", "gauge", "Instructions per cycle of the task over the last refresh.")
	for _, t := range snap.Tasks {
		e.sample("tiptop_task_ipc", taskLabels(t), t.IPC)
	}
	e.family("tiptop_task_coverage", "gauge", "Counted fraction of the last refresh interval (1 = exact, lower = multiplexed extrapolation).")
	for _, t := range snap.Tasks {
		coverage := t.Coverage
		if coverage <= 0 || coverage > 1 {
			coverage = 1 // elided on the snapshot means exact counting
		}
		e.sample("tiptop_task_coverage", taskLabels(t), coverage)
	}
	if len(snap.Columns) > 0 {
		e.family("tiptop_task_metric", "gauge", "Screen column value of the task (label \"column\" names it).")
		for _, t := range snap.Tasks {
			base := taskLabels(t)
			for i, col := range snap.Columns {
				if i >= len(t.Values) {
					break
				}
				e.sample("tiptop_task_metric", append(base[:len(base):len(base)], label{"column", col}), t.Values[i])
			}
		}
	}

	if _, err := io.WriteString(bw, "# EOF\n"); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

type label struct{ k, v string }

func taskLabels(t history.TaskSnap) []label {
	return []label{
		{"pid", strconv.Itoa(t.PID)},
		{"tid", strconv.Itoa(t.TID)},
		{"user", t.User},
		{"command", t.Command},
	}
}

type omEncoder struct {
	w   *bufio.Writer
	err error
}

func (e *omEncoder) family(name, typ, help string) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")
}

func (e *omEncoder) sample(name string, labels []label, v float64) {
	if e.err != nil {
		return
	}
	b := make([]byte, 0, 128)
	b = append(b, name...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l.k...)
			b = append(b, '=', '"')
			b = AppendEscapedLabel(b, l.v)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	b = append(b, '\n')
	_, e.err = e.w.Write(b)
}

// aggFamilies writes one metric family per Aggregate field for a scope
// ("machine", "user", "command"), one sample per label set (labelSets
// and aggs are parallel; a nil label set emits an unlabelled sample).
func (e *omEncoder) aggFamilies(scope string, labelSets [][]label, aggs []history.Aggregate) {
	for _, f := range aggFields {
		name := "tiptop_" + scope + "_" + f.suffix
		e.family(name, f.typ, f.help)
		for i := range aggs {
			e.sample(name, labelSets[i], f.get(&aggs[i]))
		}
	}
}

// refMachine is FleetMachine as the reference writer knew it: a
// snapshot, not a view.
type refMachine struct {
	Label    string
	Up       bool
	Snapshot *history.Snapshot
}

func refMachines(ms []FleetMachine) []refMachine {
	out := make([]refMachine, len(ms))
	for i, m := range ms {
		out[i] = refMachine{m.Label, m.Up, m.View.Snapshot()}
	}
	return out
}

func sortedKeys(m map[string]history.Aggregate) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func refWriteFleetOpenMetrics(w io.Writer, machines []refMachine) error {
	ms := append([]refMachine(nil), machines...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Label < ms[j].Label })

	bw := bufio.NewWriter(w)
	e := &omEncoder{w: bw}

	e.family("tiptop_fleet_agents", "gauge", "Agents joined into this aggregator.")
	e.sample("tiptop_fleet_agents", nil, float64(len(ms)))
	e.family("tiptop_agent_up", "gauge", "Whether the agent is currently streaming (1) or down (0).")
	for _, m := range ms {
		up := 0.0
		if m.Up {
			up = 1
		}
		e.sample("tiptop_agent_up", []label{{"machine", m.Label}}, up)
	}
	e.family("tiptop_agent_refreshes_total", "counter", "Refreshes recorded from the agent.")
	for _, m := range ms {
		e.sample("tiptop_agent_refreshes_total", []label{{"machine", m.Label}}, float64(m.Snapshot.Refreshes))
	}
	e.family("tiptop_agent_time_seconds", "gauge", "Agent monitor clock time of its last refresh.")
	for _, m := range ms {
		e.sample("tiptop_agent_time_seconds", []label{{"machine", m.Label}}, m.Snapshot.TimeSeconds)
	}

	// Machine-wide aggregates, one sample per agent.
	sets := make([][]label, len(ms))
	aggs := make([]history.Aggregate, len(ms))
	for i, m := range ms {
		sets[i] = []label{{"machine", m.Label}}
		aggs[i] = m.Snapshot.Machine
	}
	e.aggFamilies("machine", sets, aggs)

	// Per-user and per-command aggregates across the fleet.
	sets, aggs = sets[:0], aggs[:0]
	for _, m := range ms {
		for _, u := range sortedKeys(m.Snapshot.Users) {
			sets = append(sets, []label{{"machine", m.Label}, {"user", u}})
			aggs = append(aggs, m.Snapshot.Users[u])
		}
	}
	e.aggFamilies("user", sets, aggs)

	sets, aggs = sets[:0], aggs[:0]
	for _, m := range ms {
		for _, c := range sortedKeys(m.Snapshot.Commands) {
			sets = append(sets, []label{{"machine", m.Label}, {"command", c}})
			aggs = append(aggs, m.Snapshot.Commands[c])
		}
	}
	e.aggFamilies("command", sets, aggs)

	// Per-task gauges with the machine label prepended.
	e.family("tiptop_task_cpu_pct", "gauge", "OS CPU usage of the task over the last refresh.")
	for _, m := range ms {
		for _, t := range m.Snapshot.Tasks {
			e.sample("tiptop_task_cpu_pct", fleetTaskLabels(m.Label, t), t.CPUPct)
		}
	}
	e.family("tiptop_task_ipc", "gauge", "Instructions per cycle of the task over the last refresh.")
	for _, m := range ms {
		for _, t := range m.Snapshot.Tasks {
			e.sample("tiptop_task_ipc", fleetTaskLabels(m.Label, t), t.IPC)
		}
	}
	e.family("tiptop_task_coverage", "gauge", "Counted fraction of the last refresh interval (1 = exact, lower = multiplexed extrapolation).")
	for _, m := range ms {
		for _, t := range m.Snapshot.Tasks {
			coverage := t.Coverage
			if coverage <= 0 || coverage > 1 {
				coverage = 1
			}
			e.sample("tiptop_task_coverage", fleetTaskLabels(m.Label, t), coverage)
		}
	}
	e.family("tiptop_task_metric", "gauge", "Screen column value of the task (label \"column\" names it).")
	for _, m := range ms {
		cols := m.Snapshot.Columns
		if len(cols) == 0 {
			continue
		}
		for _, t := range m.Snapshot.Tasks {
			base := fleetTaskLabels(m.Label, t)
			for i, col := range cols {
				if i >= len(t.Values) {
					break
				}
				e.sample("tiptop_task_metric", append(base[:len(base):len(base)], label{"column", col}), t.Values[i])
			}
		}
	}

	if _, err := io.WriteString(bw, "# EOF\n"); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

func fleetTaskLabels(machine string, t history.TaskSnap) []label {
	return []label{
		{"machine", machine},
		{"pid", strconv.Itoa(t.PID)},
		{"tid", strconv.Itoa(t.TID)},
		{"user", t.User},
		{"command", t.Command},
	}
}

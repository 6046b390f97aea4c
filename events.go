package tiptop

import (
	"sort"

	"tiptop/internal/config"
	"tiptop/internal/hpm"
	"tiptop/internal/perfevent"
)

// EventInfo describes one event of a registry for listings: the
// canonical name, its kind and perf encoding, and which backends can
// count it. tiptop -list-events and tiptopd's /api/v1/events serve it.
type EventInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`     // generic, hw-cache, raw
	Encoding string `json:"encoding"` // "type=4 config=0x1ef7"
	Unit     string `json:"unit,omitempty"`
	Desc     string `json:"desc,omitempty"`
	// Supported maps a backend name ("perf_event", "sim") to whether
	// that backend can count the event.
	Supported map[string]bool `json:"supported"`
	// SlotCost maps a backend name to the number of PMU counting
	// registers the event occupies there: 0 marks events counted for
	// free — kernel software events, or counts a machine's fixed
	// counters provide (the RISC-V cycle/instret CSRs) — which never
	// force multiplexing.
	SlotCost map[string]int `json:"slot_cost"`
	// Attached is set by Monitor.EventList when the active session
	// attaches the event to every monitored task.
	Attached bool `json:"attached,omitempty"`
}

// ListEvents returns every event of cfg's registry — the built-in
// defaults plus cfg.Events — sorted by name, with the support status of
// the default perf_event backend and of the named simulated machine.
func ListEvents(cfg Config, machine MachineName) ([]EventInfo, error) {
	defs, err := config.Check(cfg.Events, cfg.Exprs, cfg.Screens)
	if err != nil {
		return nil, err
	}
	sc, err := NewScenario(machine)
	if err != nil {
		return nil, err
	}
	perf := perfevent.New()
	sim := sc.backend()
	return eventInfos(defs.Registry, func(d hpm.EventDesc) map[string]bool {
		return map[string]bool{
			perf.Name(): perf.Supported(d),
			sim.Name():  sim.Supported(d),
		}
	}, func(d hpm.EventDesc) map[string]int {
		return map[string]int{
			perf.Name(): perf.SlotCost(d),
			sim.Name():  sim.SlotCost(d),
		}
	}, nil), nil
}

// Capacities reports how many events each backend can count at once on
// the named simulated machine: the machine model's PMU register count
// for "sim", and 0 for "perf_event" (unknown without configuration —
// see Config.Counters; the kernel multiplexes beyond the real limit).
func Capacities(machine MachineName) (map[string]int, error) {
	sc, err := NewScenario(machine)
	if err != nil {
		return nil, err
	}
	perf := perfevent.New()
	sim := sc.backend()
	return map[string]int{
		perf.Name(): perf.Capacity(),
		sim.Name():  sim.Capacity(),
	}, nil
}

// BackendCapacity returns the monitor backend's name and its
// simultaneous-event capacity (0 = unlimited or kernel-multiplexed).
func (m *Monitor) BackendCapacity() (string, int) {
	b := m.session.Backend()
	return b.Name(), b.Capacity()
}

// EventList returns the monitor's event registry sorted by name, with
// the support status of the monitor's own backend and the set of events
// the session actually attaches.
func (m *Monitor) EventList() []EventInfo {
	session := m.session
	backend := session.Backend()
	attached := make(map[string]bool)
	for _, d := range session.Events() {
		attached[d.Name] = true
	}
	return eventInfos(session.Registry(), func(d hpm.EventDesc) map[string]bool {
		return map[string]bool{backend.Name(): backend.Supported(d)}
	}, func(d hpm.EventDesc) map[string]int {
		return map[string]int{backend.Name(): backend.SlotCost(d)}
	}, attached)
}

func eventInfos(registry *hpm.Registry, support func(hpm.EventDesc) map[string]bool, cost func(hpm.EventDesc) map[string]int, attached map[string]bool) []EventInfo {
	out := make([]EventInfo, 0, registry.Len())
	for _, d := range registry.Events() {
		out = append(out, EventInfo{
			Name:      d.Name,
			Kind:      d.Kind.String(),
			Encoding:  d.Encoding(),
			Unit:      d.Unit,
			Desc:      d.Desc,
			Supported: support(d),
			SlotCost:  cost(d),
			Attached:  attached[d.Name],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

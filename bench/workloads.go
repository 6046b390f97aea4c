package main

import (
	"fmt"
	"strings"

	"tiptop"
)

// workload is one deployment shape of the tiptopd pipeline. All four
// run the same operations — refresh, scrape, stream client, query
// round, store append, compaction, recovery — so every end-to-end
// metric exists on every workload; what differs is where the time
// goes.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why     string
	machine tiptop.MachineName
	screen  string
	tasks   int
	// prefill is the number of refreshes set-up records before timing
	// starts, and compactAt the prefill refresh after which set-up
	// compacts the store (0 = never): history before it is read from v2
	// columnar segments, history after it from v1 JSON ones.
	prefill   int
	compactAt int
	store     tiptop.StoreOptions
	// ticksPerSecond converts -seconds into the fixed number of timed
	// refreshes: calibrated on a 2-core sandbox so that one second of
	// -seconds is about one second of wall time there.
	ticksPerSecond float64
	// queryEvery is the number of refreshes per dashboard query round.
	queryEvery int
	// narrowWin and rawWin are the trailing windows, in seconds of store
	// time, of the narrow 10 s-step class and the raw-tier class.
	narrowWin, rawWin float64
	// churnEvery > 0 makes one task exit and another arrive every that
	// many refreshes; compactEvery > 0 starts a background Compact every
	// that many refreshes.
	churnEvery   int
	compactEvery int
}

// The four workloads. Names are final: later issues cite them.
var workloads = []workload{
	{
		name:    "live_fleet",
		why:     "2000-task node, one scraper and one stream client per refresh: core, history, export and remote do the work, store and query little",
		machine: tiptop.MachineE5640, screen: "default", tasks: 2000,
		prefill: 150, store: tiptop.StoreOptions{Budget: 1 << 30},
		ticksPerSecond: 7.5, queryEvery: 4, narrowWin: 20, rawWin: 3,
	},
	{
		name:    "live_mux",
		why:     "320 jobs, 12-event wide screen on the 4-counter Cortex-A7: every refresh closes and re-attaches a rotation group per task through the serialized mux path",
		machine: tiptop.MachineCortexA7, screen: "wide", tasks: 320,
		prefill: 150, store: tiptop.StoreOptions{Budget: 1 << 30},
		ticksPerSecond: 32, queryEvery: 10, narrowWin: 120, rawWin: 30,
	},
	{
		name:    "history_query",
		why:     "8-task node with hours of history across v2 and v1 segments, a dashboard round of five range queries per refresh: store scan and query do the work, core none",
		machine: tiptop.MachineCore2, screen: "default", tasks: 8,
		prefill: 14400, compactAt: 10800, store: tiptop.StoreOptions{Budget: 1 << 30},
		ticksPerSecond: 5.8, queryEvery: 1, narrowWin: 3600, rawWin: 1800,
	},
	{
		name:    "store_churn",
		why:     "100-task node with task churn under a tight byte budget and small segments, Compact running beside appends and queries: rotation, downsampling, retention and compaction cycle many times",
		machine: tiptop.MachineCore2, screen: "default", tasks: 100,
		prefill: 900, store: tiptop.StoreOptions{Budget: 6 << 20, SegmentBytes: 128 << 10},
		ticksPerSecond: 80, queryEvery: 10, narrowWin: 600, rawWin: 60,
		churnEvery: 5, compactEvery: 400,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// scaled returns the workload at the given scale. "tiny" exists for the
// smoke test only: its numbers are labelled and never comparable with
// "full".
func (w workload) scaled(scale string) (workload, error) {
	switch scale {
	case "full":
		return w, nil
	case "tiny":
		w.tasks = max(w.tasks/25, 8)
		w.prefill = max(w.prefill/25, 40)
		if w.compactAt > 0 {
			w.compactAt = w.prefill * 3 / 4
		}
		w.narrowWin = max(w.narrowWin/25, 20)
		w.rawWin = max(w.rawWin/25, 10)
		if w.store.SegmentBytes > 0 {
			w.store.SegmentBytes = 8 << 10
			w.store.Budget = 256 << 10
		}
		w.queryEvery = min(w.queryEvery, 5)
		if w.compactEvery > 0 {
			w.compactEvery = 20
		}
		return w, nil
	}
	return w, fmt.Errorf("unknown scale %q (want tiny or full)", scale)
}

// ticks is the number of timed refreshes for a run of the given length.
func (w workload) ticks(scale string, seconds float64) int {
	if scale == "tiny" {
		return 40
	}
	return max(int(w.ticksPerSecond*seconds), 20)
}

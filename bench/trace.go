package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary: the calls of one
// tick (or query round) share its id, and parent names the span that
// caused it. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is safe for the
// goroutines of one run (sampling, consumers, compaction).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, id int, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// durations returns, in milliseconds, the length of every span of the
// given name, in recording order.
func (t *tracer) durations(name string) series {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out series
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as trace-<workload>.json in outDir.
func (t *tracer) write(workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}

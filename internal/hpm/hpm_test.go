package hpm

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultRegistryRoundTrip(t *testing.T) {
	reg := DefaultRegistry()
	if reg.Len() != 15 {
		t.Fatalf("default registry has %d events, want 15", reg.Len())
	}
	for _, d := range reg.Events() {
		got, err := reg.ParseEvent(d.Name)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", d.Name, err)
		}
		if got != d {
			t.Fatalf("round trip %v -> %q -> %v", d, d.Name, got)
		}
		if !ValidEventName(d.Name) {
			t.Fatalf("default event name %q not a valid identifier", d.Name)
		}
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	names := DefaultRegistry().Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}

func TestRegistryRegister(t *testing.T) {
	reg := DefaultRegistry()
	d := EventDesc{Name: "MY_RAW", Kind: KindRaw, Type: PerfTypeRaw, Config: 0x1234}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	got, ok := reg.Lookup("MY_RAW")
	if !ok || got != d {
		t.Fatalf("Lookup after Register = %v, %v", got, ok)
	}
	// Duplicates (including default names) are rejected.
	if err := reg.Register(d); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := reg.Register(EventDesc{Name: EventCycles, Kind: KindGeneric}); err == nil {
		t.Fatal("shadowing a default event accepted")
	}
	// Invalid identifiers are rejected.
	for _, bad := range []string{"", "1BAD", "BAD-NAME", "RAW:0x1", "A B"} {
		if err := reg.Register(EventDesc{Name: bad, Kind: KindRaw}); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}
	// The default registry behind package ParseEvent is unaffected.
	if _, err := ParseEvent("MY_RAW"); err == nil {
		t.Fatal("registration leaked into the shared default registry")
	}
}

func TestParseEventRawSpec(t *testing.T) {
	for _, spec := range []string{"RAW:0x1EF7", "raw:0x1ef7", "RAW:1EF7"} {
		d, err := ParseEvent(spec)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", spec, err)
		}
		if d.Kind != KindRaw || d.Type != PerfTypeRaw || d.Config != 0x1EF7 {
			t.Fatalf("ParseEvent(%q) = %+v", spec, d)
		}
		if d.Name != "RAW:0x1EF7" {
			t.Fatalf("canonical raw name = %q", d.Name)
		}
	}
	for _, bad := range []string{"RAW:", "RAW:0x", "RAW:zz", "RAW:0x1 "} {
		if _, err := ParseEvent(bad); err == nil {
			t.Fatalf("bad raw spec %q accepted", bad)
		}
	}
}

func TestParseEventHWCacheSpec(t *testing.T) {
	cases := map[string]uint64{
		"L1D_READ_ACCESS":     0,
		"L1D_READ_MISS":       0 | 1<<16,
		"L1D_WRITE_ACCESS":    0 | 1<<8,
		"LLC_READ_MISS":       2 | 1<<16,
		"LLC_PREFETCH_ACCESS": 2 | 2<<8,
		"ITLB_READ_MISS":      4 | 1<<16,
		"BPU_READ_ACCESS":     5,
	}
	for spec, config := range cases {
		d, err := ParseEvent(spec)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", spec, err)
		}
		if d.Kind != KindHWCache || d.Type != PerfTypeHWCache || d.Config != config {
			t.Fatalf("ParseEvent(%q) = %+v, want config %#x", spec, d, config)
		}
		if d.Name != spec {
			t.Fatalf("hw-cache name %q != spec %q", d.Name, spec)
		}
	}
	for _, bad := range []string{"L1D_READ", "L1D_READ_MISS_X", "L9_READ_MISS", "L1D_EAT_MISS", "L1D_READ_WIN"} {
		if _, err := ParseEvent(bad); err == nil {
			t.Fatalf("bad hw-cache spec %q accepted", bad)
		}
	}
}

func TestParseEventUnknown(t *testing.T) {
	if _, err := ParseEvent("NOT_AN_EVENT"); err == nil {
		t.Fatal("expected error for unknown event name")
	}
}

func TestGenericClassification(t *testing.T) {
	reg := DefaultRegistry()
	generic := []string{EventCycles, EventInstructions, EventCacheReferences,
		EventCacheMisses, EventBranches, EventBranchMisses}
	for _, name := range generic {
		d, _ := reg.Lookup(name)
		if !d.Generic() {
			t.Errorf("%v should be generic", d)
		}
	}
	specific := []string{EventFPAssist, EventL2Misses, EventLoads, EventStores, EventFPOps}
	for _, name := range specific {
		d, _ := reg.Lookup(name)
		if d.Generic() {
			t.Errorf("%v should not be generic", d)
		}
		if d.Kind != KindRaw {
			t.Errorf("%v should be a raw event, got %v", d, d.Kind)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if KindGeneric.String() != "generic" || KindHWCache.String() != "hw-cache" || KindRaw.String() != "raw" || KindSoftware.String() != "software" {
		t.Fatal("kind names drifted")
	}
}

func TestSoftwareEventsRegistered(t *testing.T) {
	r := DefaultRegistry()
	for name, config := range map[string]uint64{
		EventPageFaults:    SWPageFaults,
		EventCtxSwitches:   SWCtxSwitches,
		EventCPUMigrations: SWCPUMigrations,
	} {
		d, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("software event %s missing from DefaultRegistry", name)
		}
		if d.Kind != KindSoftware || d.Type != PerfTypeSoftware || d.Config != config {
			t.Fatalf("%s = %+v, want software type=%d config=%d", name, d, PerfTypeSoftware, config)
		}
	}
}

func TestTaskID(t *testing.T) {
	p := TaskID{PID: 10, TID: 10}
	if !p.IsProcess() {
		t.Fatal("leader must be a process")
	}
	th := TaskID{PID: 10, TID: 11}
	if th.IsProcess() {
		t.Fatal("thread must not be a process")
	}
	if p.String() == "" || th.String() == "" || p.String() == th.String() {
		t.Fatalf("String: %q vs %q", p, th)
	}
}

func TestGroupScope(t *testing.T) {
	leader := TaskID{PID: 10, TID: 10}
	g := leader.Group()
	if !g.IsGroup() || g.PID != 10 || g.TID != 0 {
		t.Fatalf("Group() = %+v", g)
	}
	if leader.IsGroup() {
		t.Fatal("a leader is not group scope")
	}
	if g.IsProcess() {
		t.Fatal("group scope is not a concrete leader task")
	}
	if !strings.Contains(g.String(), "group") {
		t.Fatalf("group String = %q", g)
	}
}

func TestCountScaled(t *testing.T) {
	// Counter ran whenever enabled: no scaling.
	c := Count{Raw: 1000, Enabled: 50, Running: 50}
	if c.Scaled() != 1000 || !c.Exact() {
		t.Fatalf("exact count scaled to %d", c.Scaled())
	}
	// Counter ran half the time: value doubles.
	c = Count{Raw: 1000, Enabled: 100, Running: 50}
	if got := c.Scaled(); got != 2000 {
		t.Fatalf("multiplexed count = %d, want 2000", got)
	}
	if c.Exact() {
		t.Fatal("multiplexed count must not be exact")
	}
	// Never ran: zero, not division by zero.
	c = Count{Raw: 1000, Enabled: 100, Running: 0}
	if got := c.Scaled(); got != 0 {
		t.Fatalf("never-ran count = %d, want 0", got)
	}
}

// Regression: an event that was enabled but never scheduled onto a
// counter (Running==0, Enabled>0 — e.g. its rotation group never got a
// turn) must report 0, not the raw value, and must not claim exactness.
func TestCountNeverScheduled(t *testing.T) {
	c := Count{Raw: 7777, Enabled: 1_000_000, Running: 0}
	if got := c.Scaled(); got != 0 {
		t.Fatalf("never-scheduled Scaled() = %d, want 0", got)
	}
	if c.Exact() {
		t.Fatal("never-scheduled count claims Exact()")
	}
	// The degenerate zero count (never enabled at all) stays exact: no
	// multiplexing happened, there is simply nothing to report.
	z := Count{}
	if !z.Exact() || z.Scaled() != 0 {
		t.Fatalf("zero count: Scaled=%d Exact=%v", z.Scaled(), z.Exact())
	}
}

func TestCPUScope(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		id := CPUTask(n)
		if !id.IsCPU() || id.CPU() != n {
			t.Fatalf("CPUTask(%d) = %+v (IsCPU=%v CPU=%d)", n, id, id.IsCPU(), id.CPU())
		}
		if id.IsGroup() {
			t.Fatalf("CPU scope %v must not be group scope", id)
		}
		if !strings.Contains(id.String(), "cpu") {
			t.Fatalf("CPU scope String = %q", id)
		}
	}
	// Distinct CPUs map to distinct PIDs so PID-keyed layers (history,
	// store, wire) keep them apart.
	if CPUTask(0) == CPUTask(1) {
		t.Fatal("CPU scopes collide")
	}
	if (TaskID{PID: 10, TID: 10}).IsCPU() {
		t.Fatal("ordinary task claims CPU scope")
	}
}

func TestDeltas(t *testing.T) {
	prev := []Count{{Raw: 100, Enabled: 1, Running: 1}, {Raw: 50, Enabled: 1, Running: 1}}
	cur := []Count{{Raw: 180, Enabled: 2, Running: 2}, {Raw: 40, Enabled: 2, Running: 2}}
	d := DeltasInto(nil, prev, cur)
	if d[0] != 80 {
		t.Fatalf("delta[0] = %d, want 80", d[0])
	}
	// Regressing counter clamps to zero.
	if d[1] != 0 {
		t.Fatalf("delta[1] = %d, want 0 (clamped)", d[1])
	}
}

func TestDeltasInto(t *testing.T) {
	prev := []Count{{Raw: 100, Enabled: 1, Running: 1}, {Raw: 50, Enabled: 1, Running: 1}}
	cur := []Count{{Raw: 180, Enabled: 2, Running: 2}, {Raw: 40, Enabled: 2, Running: 2}}
	// A stale, oversized destination is truncated and fully overwritten.
	dst := []uint64{9, 9, 9, 9}
	out := DeltasInto(dst, prev, cur)
	if len(out) != 2 || out[0] != 80 || out[1] != 0 {
		t.Fatalf("deltas = %v", out)
	}
	if &out[0] != &dst[0] {
		t.Fatal("destination with sufficient capacity must be reused")
	}
	// An undersized destination grows.
	out = DeltasInto(make([]uint64, 0), prev, cur)
	if len(out) != 2 || out[0] != 80 || out[1] != 0 {
		t.Fatalf("deltas = %v", out)
	}
}

func TestDeltasLengthMismatch(t *testing.T) {
	// New events appended since last read: their full value is the delta.
	prev := []Count{{Raw: 10, Enabled: 1, Running: 1}}
	cur := []Count{{Raw: 15, Enabled: 1, Running: 1}, {Raw: 7, Enabled: 1, Running: 1}}
	d := DeltasInto(nil, prev, cur)
	if len(d) != 2 || d[0] != 5 || d[1] != 7 {
		t.Fatalf("deltas = %v", d)
	}
}

// Property: deltas are never negative (they are uint64 but must also never
// be produced by wrap-around) and monotone counters give exact diffs.
func TestPropDeltasMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		prev := []Count{{Raw: lo, Enabled: 1, Running: 1}}
		cur := []Count{{Raw: hi, Enabled: 1, Running: 1}}
		d := DeltasInto(nil, prev, cur)
		return d[0] == hi-lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling never shrinks a count (Enabled >= Running by
// construction) and is the identity when exact.
func TestPropScaledMonotone(t *testing.T) {
	f := func(raw uint64, running, extra uint32) bool {
		run := uint64(running)
		en := run + uint64(extra)
		c := Count{Raw: raw % (1 << 40), Enabled: en, Running: run}
		s := c.Scaled()
		if run == 0 {
			return s == 0
		}
		return s >= c.Raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package pmu

import (
	"errors"
	"math"
	"testing"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

func setup(t *testing.T, m *machine.Machine) (*sched.Kernel, *Backend, *sched.Task) {
	t.Helper()
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Synthetic(workload.SyntheticSpec{Name: "job", IPC: 1.5})
	task := k.Spawn("u", "job", workload.MustInstance(w, 1), nil)
	return k, New(k), task
}

func TestProbeAndName(t *testing.T) {
	_, b, _ := setup(t, machine.XeonW3550())
	if err := b.Probe(); err != nil {
		t.Fatal(err)
	}
	if b.Name() != "sim" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.Kernel() == nil {
		t.Fatal("Kernel accessor")
	}
}

func TestSupportedEvents(t *testing.T) {
	reg := hpm.DefaultRegistry()
	_, nehalem, _ := setup(t, machine.XeonW3550())
	for _, d := range reg.Events() {
		if !nehalem.Supported(d) {
			t.Errorf("W3550 must support %v", d)
		}
	}
	if nehalem.Supported(hpm.EventDesc{}) {
		t.Fatal("invalid descriptor supported")
	}
	_, ppc, _ := setup(t, machine.PPC970())
	fpa, _ := reg.Lookup(hpm.EventFPAssist)
	if ppc.Supported(fpa) {
		t.Fatal("PPC970 has no FP-assist event")
	}
	cycles, _ := reg.Lookup(hpm.EventCycles)
	if !ppc.Supported(cycles) {
		t.Fatal("PPC970 supports generic events")
	}
}

// TestRawAndHWCacheResolution: raw codes resolve through the machine
// model's decode table, hw-cache encodings through the cache model —
// without any registry defaults in play.
func TestRawAndHWCacheResolution(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	// 0x1EF7 is FP_ASSIST.ALL in the W3550 decode table; an unknown
	// code is rejected like unimplemented hardware would.
	if !b.Supported(evs(t, "RAW:0x1EF7")[0]) {
		t.Fatal("W3550 must decode RAW:0x1EF7")
	}
	if b.Supported(evs(t, "RAW:0xDEAD")[0]) {
		t.Fatal("undecodable raw code supported")
	}
	if b.Supported(evs(t, "ITLB_READ_MISS")[0]) {
		t.Fatal("unmodelled hw-cache event supported")
	}
	// A raw cycles-stall code and the hw-cache LLC miss count both
	// track their named counterparts exactly.
	ctr, err := b.Attach(task.ID(), evs(t,
		"RAW:0x1EF7", hpm.EventFPAssist, "LLC_READ_MISS", hpm.EventCacheMisses))
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(2 * time.Second)
	counts, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Raw != counts[1].Raw {
		t.Fatalf("RAW:0x1EF7 (%d) != FP_ASSIST (%d)", counts[0].Raw, counts[1].Raw)
	}
	if counts[2].Raw != counts[3].Raw {
		t.Fatalf("LLC_READ_MISS (%d) != CACHE_MISSES (%d)", counts[2].Raw, counts[3].Raw)
	}
}

// evs resolves canonical names (or RAW:/hw-cache specs) to descriptors
// through the default registry.
func evs(t *testing.T, specs ...string) []hpm.EventDesc {
	t.Helper()
	out := make([]hpm.EventDesc, len(specs))
	for i, spec := range specs {
		d, err := hpm.ParseEvent(spec)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", spec, err)
		}
		out[i] = d
	}
	return out
}

func TestAttachErrors(t *testing.T) {
	_, b, _ := setup(t, machine.XeonW3550())
	if _, err := b.Attach(hpm.TaskID{PID: 9999, TID: 9999}, evs(t, hpm.EventCycles)); !errors.Is(err, hpm.ErrNoSuchTask) {
		t.Fatalf("missing task error = %v", err)
	}
	if _, err := b.Attach(hpm.TaskID{PID: 100, TID: 100}, nil); !errors.Is(err, hpm.ErrUnsupportedEvent) {
		t.Fatalf("empty events error = %v", err)
	}
	_, ppc, task := setup(t, machine.PPC970())
	if _, err := ppc.Attach(task.ID(), evs(t, hpm.EventFPAssist)); !errors.Is(err, hpm.ErrUnsupportedEvent) {
		t.Fatalf("unsupported event error = %v", err)
	}
}

func TestCountsStartAtAttach(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	k.Advance(time.Second) // pre-attach activity is invisible
	ctr, err := b.Attach(task.ID(), evs(t, hpm.EventCycles, hpm.EventInstructions))
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	counts, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Raw != 0 || counts[1].Raw != 0 {
		t.Fatalf("counters must be zero at attach: %+v", counts)
	}
	preInstr := task.Totals().Instructions
	k.Advance(time.Second)
	counts, err = ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	wantInstr := task.Totals().Instructions - preInstr
	if counts[1].Scaled() != wantInstr {
		t.Fatalf("instructions = %d, want %d (only post-attach)", counts[1].Scaled(), wantInstr)
	}
	if counts[0].Raw == 0 {
		t.Fatal("cycles must accumulate")
	}
	if !counts[0].Exact() {
		t.Fatal("2 events on a 16-counter PMU must not multiplex")
	}
}

func TestReadIntoReusesDestination(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	ctr, err := b.Attach(task.ID(), evs(t, hpm.EventCycles, hpm.EventInstructions))
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	reader, ok := ctr.(hpm.CountReader)
	if !ok {
		t.Fatal("pmu counter must implement hpm.CountReader")
	}
	k.Advance(time.Second)
	want, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]hpm.Count, 0, 8)
	got, err := reader.ReadInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ReadInto = %+v, want %+v", got, want)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("destination with sufficient capacity must be reused")
	}
}

func TestIPCFromCounters(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	ctr, err := b.Attach(task.ID(), evs(t, hpm.EventCycles, hpm.EventInstructions))
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(5 * time.Second)
	counts, _ := ctr.Read()
	ipc := float64(counts[1].Scaled()) / float64(counts[0].Scaled())
	if math.Abs(ipc-1.5) > 0.1 {
		t.Fatalf("measured IPC = %.3f, workload calibrated to 1.5", ipc)
	}
}

func TestMultiplexingScalesCounts(t *testing.T) {
	// Request more events than hardware counters: raw counts are
	// partial but the Enabled/Running scaling must recover the totals.
	m := machine.Core2() // only 4 counters
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Synthetic(workload.SyntheticSpec{Name: "job", IPC: 1.2})
	task := k.Spawn("u", "job", workload.MustInstance(w, 1), nil)
	b := New(k)
	events := evs(t,
		hpm.EventCycles, hpm.EventInstructions, hpm.EventCacheReferences,
		hpm.EventCacheMisses, hpm.EventBranches, hpm.EventBranchMisses,
		hpm.EventLoads, hpm.EventStores,
	)
	ctr, err := b.Attach(task.ID(), events)
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(10 * time.Second)
	counts, _ := ctr.Read()
	for i, c := range counts {
		if c.Exact() {
			t.Fatalf("event %v must be multiplexed (8 events, 4 counters)", events[i])
		}
		if c.Running == 0 {
			t.Fatalf("event %v never ran; rotation broken", events[i])
		}
		if c.Running >= c.Enabled {
			t.Fatalf("event %v running %d >= enabled %d", events[i], c.Running, c.Enabled)
		}
	}
	// Scaled instruction count should approximate the true total
	// executed after attach (within a few percent, it is an estimate).
	trueInstr := task.Totals().Instructions
	scaled := counts[1].Scaled()
	rel := math.Abs(float64(scaled)-float64(trueInstr)) / float64(trueInstr)
	if rel > 0.05 {
		t.Fatalf("multiplex-scaled instructions off by %.1f%% (scaled %d, true %d)",
			rel*100, scaled, trueInstr)
	}
	// Running time should be roughly slots/events of enabled time.
	ratio := float64(counts[0].Running) / float64(counts[0].Enabled)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("running/enabled = %.3f, want ~0.5 (4 of 8 events)", ratio)
	}
}

func TestSixteenEventsOnW3550NotMultiplexed(t *testing.T) {
	// Paper §2.6: the W3550 counts up to sixteen simultaneous events.
	k, b, task := setup(t, machine.XeonW3550())
	events := hpm.DefaultRegistry().Events()
	ctr, err := b.Attach(task.ID(), events)
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(2 * time.Second)
	counts, _ := ctr.Read()
	for i, c := range counts {
		if !c.Exact() {
			t.Fatalf("event %v multiplexed although %d <= 16 counters", events[i], len(events))
		}
	}
}

func TestCloseDetaches(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	ctr, err := b.Attach(task.ID(), evs(t, hpm.EventCycles))
	if err != nil {
		t.Fatal(err)
	}
	k.Advance(100 * time.Millisecond)
	c1, _ := ctr.Read()
	if err := ctr.Close(); err != nil {
		t.Fatal(err)
	}
	if !task.Monitored() {
		// After close, the sink must be gone.
	} else {
		t.Fatal("Close must detach the sink")
	}
	if _, err := ctr.Read(); err == nil {
		t.Fatal("read after close must fail")
	}
	if err := ctr.Close(); err != nil {
		t.Fatal("double close is idempotent")
	}
	_ = c1
}

func TestTwoIndependentMonitors(t *testing.T) {
	// Two tools watching the same process see independent attach
	// baselines.
	k, b, task := setup(t, machine.XeonW3550())
	c1, err := b.Attach(task.ID(), evs(t, hpm.EventInstructions))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	k.Advance(time.Second)
	c2, err := b.Attach(task.ID(), evs(t, hpm.EventInstructions))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	k.Advance(time.Second)
	r1, _ := c1.Read()
	r2, _ := c2.Read()
	if r1[0].Raw <= r2[0].Raw {
		t.Fatalf("earlier monitor must have counted more: %d vs %d", r1[0].Raw, r2[0].Raw)
	}
	if r2[0].Raw == 0 {
		t.Fatal("late monitor must still count")
	}
}

func TestCountersSurviveTaskExit(t *testing.T) {
	k, err := sched.New(machine.XeonW3550(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Scaled(workload.Synthetic(workload.SyntheticSpec{Name: "brief", IPC: 1.5}), 0.0005)
	task := k.Spawn("u", "brief", workload.MustInstance(w, 1), nil)
	b := New(k)
	ctr, err := b.Attach(task.ID(), evs(t, hpm.EventInstructions))
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(5 * time.Second)
	if task.State() != sched.TaskExited {
		t.Fatal("task should have exited")
	}
	counts, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Raw == 0 {
		t.Fatal("final counts must remain readable after exit")
	}
}

// TestGenericAliasResolvesByEncoding: a user-defined alias of a
// built-in generic event (same attr.Type/attr.Config under a new name)
// must count identically — resolution goes by the perf encoding, not
// the name (regression: aliases of generic events were rejected).
func TestGenericAliasResolvesByEncoding(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	reg := hpm.DefaultRegistry()
	instr, _ := reg.Lookup(hpm.EventInstructions)
	alias := hpm.EventDesc{
		Name: "INSTR_ALIAS", Kind: instr.Kind, Type: instr.Type, Config: instr.Config,
	}
	if !b.Supported(alias) {
		t.Fatal("generic alias must be supported")
	}
	ctr, err := b.Attach(task.ID(), []hpm.EventDesc{alias, instr})
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	k.Advance(time.Second)
	counts, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Raw == 0 || counts[0].Raw != counts[1].Raw {
		t.Fatalf("alias (%d) != INSTRUCTIONS (%d)", counts[0].Raw, counts[1].Raw)
	}
	// An unknown generic config is not countable.
	if b.Supported(hpm.EventDesc{Name: "X", Type: hpm.PerfTypeHardware, Config: 99}) {
		t.Fatal("unknown hardware config supported")
	}
}

// TestGateAndSyscallTally: a disabled counter advances neither Raw,
// Enabled nor Running and resumes where it stopped (hpm.Gate), and the
// backend tallies what the same calls cost a real perf_event monitor:
// one open and one close per event, one read and one ioctl per call.
func TestGateAndSyscallTally(t *testing.T) {
	k, b, task := setup(t, machine.XeonW3550())
	ctr, err := b.Attach(task.ID(), evs(t, hpm.EventCycles, hpm.EventInstructions, hpm.EventPageFaults))
	if err != nil {
		t.Fatal(err)
	}
	gate, ok := ctr.(hpm.Gate)
	if !ok {
		t.Fatal("simulated counters must offer hpm.Gate")
	}
	k.Advance(50 * time.Millisecond)
	on, _ := ctr.Read()
	if on[0].Raw == 0 || on[0].Enabled == 0 {
		t.Fatalf("a fresh counter must be enabled: %+v", on)
	}
	if err := gate.Disable(); err != nil {
		t.Fatal(err)
	}
	k.Advance(50 * time.Millisecond)
	off, _ := ctr.Read()
	for i := range on {
		if off[i] != on[i] {
			t.Fatalf("event %d advanced while disabled: %+v -> %+v", i, on[i], off[i])
		}
	}
	if err := gate.Enable(); err != nil {
		t.Fatal(err)
	}
	k.Advance(50 * time.Millisecond)
	again, _ := ctr.Read()
	if again[0].Raw <= on[0].Raw || again[0].Enabled <= on[0].Enabled || again[0].Running != again[0].Enabled {
		t.Fatalf("a re-enabled counter must resume, exact: %+v -> %+v", on[0], again[0])
	}
	if got, want := b.Syscalls(), (Syscalls{Opens: 3, Reads: 3, Gates: 2}); got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
	ctr.Close()
	if err := gate.Enable(); err == nil {
		t.Fatal("gating a closed counter must fail")
	}
	if got, want := b.Syscalls(), (Syscalls{Opens: 3, Closes: 3, Reads: 3, Gates: 2}); got != want {
		t.Fatalf("tally after close %+v, want %+v", got, want)
	}
	// System-wide counters are descriptors too.
	cpu0, err := b.Attach(hpm.CPUTask(0), evs(t, hpm.EventCycles))
	if err != nil {
		t.Fatal(err)
	}
	cpu0.Close()
	if got := b.Syscalls(); got.Opens != 4 || got.Closes != 4 {
		t.Fatalf("tally after a CPU-scope attach and close %+v, want 4 opens and closes", got)
	}
}

package tiptop

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"tiptop/internal/metrics"
	"tiptop/internal/remote"
	"tiptop/internal/ukernel"
)

func TestScenarioCreation(t *testing.T) {
	for _, name := range []MachineName{MachineXeonW3550, MachineE5640, MachineCore2, MachinePPC970} {
		sc, err := NewScenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Machine() == nil {
			t.Fatal("machine accessor")
		}
	}
	if _, err := NewScenario("amiga"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestWorkloadCatalogComplete(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	for _, name := range WorkloadNames() {
		pid, err := sc.StartWorkload("u", name, 0.0001)
		if err != nil {
			t.Fatalf("StartWorkload(%s): %v", name, err)
		}
		if pid == 0 {
			t.Fatalf("%s: zero pid", name)
		}
	}
	if _, err := sc.StartWorkload("u", "doom", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSimMonitorEndToEnd(t *testing.T) {
	sc, err := NewScenario(MachineXeonW3550)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := sc.StartWorkload("alice", "gromacs", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	if _, err := mon.SampleNow(); err != nil { // attach pass
		t.Fatal(err)
	}
	sample, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Rows) != 1 {
		t.Fatalf("rows = %d", len(sample.Rows))
	}
	row := sample.Rows[0]
	if row.PID != pid || row.User != "alice" || row.Command != "435.gromacs" {
		t.Fatalf("row = %+v", row)
	}
	if !row.Monitored {
		t.Fatal("row must be monitored")
	}
	// gromacs is calibrated to IPC ~1.7 on the W3550.
	if row.IPC < 1.4 || row.IPC > 2.0 {
		t.Fatalf("IPC = %v", row.IPC)
	}
	if row.Events["CYCLES"] == 0 || row.Events["INSTRUCTIONS"] == 0 {
		t.Fatal("raw events missing")
	}
	if len(row.Columns) != len(mon.Headers()) {
		t.Fatal("column/header mismatch")
	}
}

func TestMonitorScreensAndEvents(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	sc.StartWorkload("u", "mcf", 0.001)
	mon, err := NewSimMonitor(sc, Config{Screen: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	headers := strings.Join(mon.Headers(), " ")
	if !strings.Contains(headers, "L2M") || !strings.Contains(headers, "L3M") {
		t.Fatalf("mem screen headers = %q", headers)
	}
	evs := strings.Join(mon.Events(), " ")
	if !strings.Contains(evs, "L2_MISSES") {
		t.Fatalf("events = %q", evs)
	}
	if _, err := NewSimMonitor(sc, Config{Screen: "bogus"}); err == nil {
		t.Fatal("unknown screen accepted")
	}
	if _, err := NewSimMonitor(nil, Config{}); err == nil {
		t.Fatal("nil scenario accepted")
	}
}

func TestFPMicroThroughPublicAPI(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	// 10M iterations at the assisted IPC of ~0.015 last several
	// simulated seconds: plenty of refreshes observe the collapse.
	if _, err := sc.StartFPMicro("u", "x87", "nan", 10_000_000); err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, Config{Screen: "fp", Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.SampleNow()
	sample, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Rows) == 0 {
		t.Fatal("micro-kernel vanished before the first refresh")
	}
	row := sample.Rows[0]
	if row.IPC > 0.03 {
		t.Fatalf("x87 NaN IPC = %v, want the Table 1 collapse", row.IPC)
	}
	if row.Events["FP_ASSIST"] == 0 {
		t.Fatal("assists must be counted")
	}
	// Bad arguments.
	if _, err := sc.StartFPMicro("u", "mmx", "nan", 1); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := sc.StartFPMicro("u", "x87", "subnormal", 1); err == nil {
		t.Fatal("bad values accepted")
	}
}

func TestMicroKernelAssemblyAPI(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	pid, err := sc.StartMicroKernel("u", "loop", `
  movi r1, 100000
loop:
  iadd r0, r0, 1
  cmp r0, r1
  jne loop
  halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Running(pid) {
		t.Fatal("kernel must be running")
	}
	sc.Advance(time.Second)
	if sc.Running(pid) {
		t.Fatal("300k instructions finish well within a second")
	}
	if _, err := sc.StartMicroKernel("u", "bad", "not asm"); err == nil {
		t.Fatal("bad assembly accepted")
	}
}

// TestStartValidationKernel: every suite kernel, started by name on the
// Nehalem workstation, runs to exit under the sim monitor and retires
// exactly its analytic instruction count; an unknown name is refused,
// and the validate scenario still starts the whole suite.
func TestStartValidationKernel(t *testing.T) {
	for _, vk := range ukernel.ValidationSuite() {
		sc, _ := NewScenario(MachineXeonW3550)
		pid, err := sc.StartValidationKernel("u", vk.Name)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := NewSimMonitor(sc, Config{Interval: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mon.SampleNow(); err != nil {
			t.Fatal(err)
		}
		for i := 0; sc.Running(pid); i++ {
			if i == 1000 {
				t.Fatalf("%s still running after %d refreshes", vk.Name, i)
			}
			if _, err := mon.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		mon.Close()
		if got, err := sc.TaskTotal(pid, "INSTRUCTIONS"); err != nil || got != vk.ExpectedInstructions {
			t.Errorf("%s retired %d instructions (%v), want %d", vk.Name, got, err, vk.ExpectedInstructions)
		}
	}

	sc, _ := NewScenario(MachineXeonW3550)
	if _, err := sc.StartValidationKernel("u", "nope"); err == nil {
		t.Fatal("unknown validation kernel accepted")
	}

	sc, err := NewNamedScenario("validate", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	sample, err := mon.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Rows) != 5 {
		t.Fatalf("validate scenario runs %d processes, want the 5 suite kernels", len(sample.Rows))
	}
}

func TestSyntheticAndKill(t *testing.T) {
	sc, _ := NewScenario(MachineE5640)
	pid, err := sc.StartSynthetic("ops", "daemon", 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc.Advance(2 * time.Second)
	if !sc.Running(pid) {
		t.Fatal("synthetic jobs never exit by themselves")
	}
	if err := sc.Kill(pid); err != nil {
		t.Fatal(err)
	}
	if sc.Running(pid) {
		t.Fatal("killed job still running")
	}
	if _, err := sc.StartSynthetic("ops", "bad", 99); err == nil {
		t.Fatal("absurd IPC accepted")
	}
}

// TestSyntheticJobDutyNoiseAndSeed covers the scenario knobs the
// paper's figures set: a duty cycle shows as %CPU, the noise amplitude
// spreads the IPC, and SetSeed replays a process's randomness.
func TestSyntheticJobDutyNoiseAndSeed(t *testing.T) {
	ipcs := func(seed int64, job SyntheticJob) (cpu float64, ipc []float64) {
		t.Helper()
		sc, _ := NewScenario(MachineE5640)
		sc.SetSeed(seed)
		if _, err := sc.StartSyntheticJob("u", job); err != nil {
			t.Fatal(err)
		}
		mon, err := NewSimMonitor(sc, Config{Interval: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		mon.SampleNow()
		for i := 0; i < 5; i++ {
			s, err := mon.Sample()
			if err != nil {
				t.Fatal(err)
			}
			cpu = s.Rows[0].CPUPct
			ipc = append(ipc, s.Rows[0].IPC)
		}
		return cpu, ipc
	}
	cpu, _ := ipcs(1, SyntheticJob{Name: "io", IPC: 1.5, Duty: 0.437})
	if cpu < 40 || cpu > 48 {
		t.Errorf("a 0.437 duty cycle shows %.1f %%CPU, want ~43.7", cpu)
	}
	if cpu, _ := ipcs(1, SyntheticJob{Name: "busy", IPC: 1.5}); cpu < 99 {
		t.Errorf("no duty cycle shows %.1f %%CPU, want 100", cpu)
	}
	_, a := ipcs(7, SyntheticJob{Name: "j", IPC: 1.5})
	_, b := ipcs(7, SyntheticJob{Name: "j", IPC: 1.5})
	_, c := ipcs(8, SyntheticJob{Name: "j", IPC: 1.5})
	if !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Errorf("SetSeed must replay a seed and only it: %v %v %v", a, b, c)
	}
	spread := func(xs []float64) float64 { return slices.Max(xs) - slices.Min(xs) }
	_, quiet := ipcs(7, SyntheticJob{Name: "j", IPC: 1.5, Noise: 0.001})
	if spread(quiet) >= spread(a) {
		t.Errorf("Noise 0.001 spreads IPC by %v, the default by %v", spread(quiet), spread(a))
	}

	sc, _ := NewScenario(MachineE5640)
	for _, duty := range []float64{-0.5, 1.5} {
		if _, err := sc.StartSyntheticJob("u", SyntheticJob{Name: "x", IPC: 1, Duty: duty}); err == nil {
			t.Errorf("duty %v accepted", duty)
		}
	}
	pid, _ := sc.StartSyntheticJob("u", SyntheticJob{Name: "x", IPC: 1})
	if _, err := sc.AddSyntheticThread(pid, SyntheticJob{Name: "t", IPC: 1, Duty: 0.5}); err == nil {
		t.Error("a thread took a duty cycle")
	}
}

func TestRenderBatch(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	sc.StartWorkload("bob", "astar", 0.005)
	mon, _ := NewSimMonitor(sc, Config{Interval: time.Second})
	defer mon.Close()
	mon.SampleNow()
	sample, _ := mon.Sample()
	var sb strings.Builder
	if err := mon.Render(&sb, sample); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"PID", "USER", "IPC", "bob", "473.astar"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTopologyAndScenarioHelpers(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	if !strings.Contains(sc.Topology(), "Socket#0") {
		t.Fatal("topology rendering")
	}
	if sc.Now() != 0 {
		t.Fatal("fresh scenario at t=0")
	}
	quick := ScenarioSPEC()
	if quick.Machine().MicroArch != "Nehalem" {
		t.Fatal("quickstart scenario machine")
	}
}

func TestPerThreadMonitoring(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	pid, err := sc.StartSyntheticJob("u", SyntheticJob{Name: "app", IPC: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	tid, err := sc.AddSyntheticThread(pid, SyntheticJob{Name: "spinner", IPC: 3.2})
	if err != nil {
		t.Fatal(err)
	}
	if tid == pid {
		t.Fatal("thread needs its own tid")
	}
	if _, err := sc.AddSyntheticThread(99999, SyntheticJob{Name: "x", IPC: 1}); err == nil {
		t.Fatal("unknown pid accepted")
	}
	if _, err := sc.AddSyntheticThread(pid, SyntheticJob{Name: "x", IPC: 99}); err == nil {
		t.Fatal("absurd IPC accepted")
	}

	// Process view: one row blending both threads' IPC.
	procMon, err := NewSimMonitor(sc, Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer procMon.Close()
	procMon.SampleNow()
	procSample, err := procMon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(procSample.Rows) != 1 {
		t.Fatalf("process rows = %d", len(procSample.Rows))
	}
	blended := procSample.Rows[0].IPC
	if blended < 1.3 || blended > 3.0 {
		t.Fatalf("blended process IPC = %.2f (footnote 3: spinner inflates it)", blended)
	}

	// Thread view: two rows, the spinner clearly hotter.
	thrMon, err := NewSimMonitor(sc, Config{Interval: time.Second, PerThread: true})
	if err != nil {
		t.Fatal(err)
	}
	defer thrMon.Close()
	thrMon.SampleNow()
	thrSample, err := thrMon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(thrSample.Rows) != 2 {
		t.Fatalf("thread rows = %d", len(thrSample.Rows))
	}
	var worker, spinner float64
	for _, row := range thrSample.Rows {
		if row.PID != pid {
			t.Fatalf("unexpected pid %d", row.PID)
		}
		if row.IPC > spinner {
			worker, spinner = spinner, row.IPC
		} else if row.IPC > worker {
			worker = row.IPC
		}
	}
	if spinner < worker*2 {
		t.Fatalf("per-thread view must separate spinner (%.2f) from worker (%.2f)", spinner, worker)
	}
}

func TestLatencyScreenEndToEnd(t *testing.T) {
	// The §3.4 future-work screen: memory-stall share rises with
	// memory-hungry neighbours while %CPU stays flat.
	stallShare := func(neighbours int) float64 {
		sc, _ := NewScenario(MachineXeonW3550)
		if _, err := sc.StartWorkload("u", "mcf", 0.02, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < neighbours; i++ {
			if _, err := sc.StartSyntheticJob("n", SyntheticJob{
				Name: "stream", IPC: 0.8, MemRefsPKI: 350, HotMB: 2, WarmMB: 24,
			}, i+1); err != nil {
				t.Fatal(err)
			}
		}
		mon, err := NewSimMonitor(sc, Config{Screen: "lat", Interval: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		mon.SampleNow()
		var sum, n float64
		for i := 0; i < 10; i++ {
			sample, err := mon.Sample()
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range sample.Rows {
				if row.Command == "429.mcf" && row.IPC > 0 {
					sum += row.Columns[3] // %STL
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no samples")
		}
		return sum / n
	}
	alone := stallShare(0)
	crowded := stallShare(3)
	if crowded <= alone*1.5 {
		t.Fatalf("memory-stall share must rise with neighbours: %.1f%% -> %.1f%%", alone, crowded)
	}
}

func TestRooflineScreen(t *testing.T) {
	sc, _ := NewScenario(MachineXeonW3550)
	sc.StartWorkload("u", "gromacs", 0.01)
	mon, err := NewSimMonitor(sc, Config{Screen: "roofline"})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.SampleNow()
	sample, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	row := sample.Rows[0]
	headers := mon.Headers()
	if headers[0] != "FPC" || headers[1] != "LPC" {
		t.Fatalf("headers = %v", headers)
	}
	// gromacs: 480 FP ops per KI at IPC ~1.75 -> FPC ~0.84.
	if fpc := row.Columns[0]; fpc < 0.5 || fpc > 1.2 {
		t.Fatalf("gromacs FPC = %v", fpc)
	}
	if bpi := row.Columns[4]; bpi < 0.05 || bpi > 0.15 {
		t.Fatalf("gromacs BPI = %v", bpi)
	}
}

func TestRealMonitorGracefulFallback(t *testing.T) {
	mon, err := NewRealMonitor(Config{})
	if err != nil {
		if !errors.Is(err, ErrNoBackend) {
			t.Fatalf("unexpected error type: %v", err)
		}
		t.Skipf("perf_event unavailable (expected in containers): %v", err)
	}
	defer mon.Close()
	sample, err := mon.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live monitoring works: %d tasks visible", len(sample.Rows))
}

func TestManyTasksScenarioParallelMonitor(t *testing.T) {
	const tasks = 300
	sc, err := ScenarioManyTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, Config{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	sample, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Rows) != tasks {
		t.Fatalf("rows = %d, want %d", len(sample.Rows), tasks)
	}
	monitored := 0
	for _, r := range sample.Rows {
		if r.Monitored {
			monitored++
		}
	}
	if monitored != tasks {
		t.Fatalf("monitored = %d, want %d", monitored, tasks)
	}
	if _, err := ScenarioManyTasks(0); err == nil {
		t.Fatal("n = 0 must be rejected")
	}
}

// TestCustomEventsAndScreens drives the extensible event registry
// through the public facade: a raw-coded event and a hw-cache event
// defined in Config (no registry defaults edited) power a custom
// screen against the sim backend, whose machine model decodes the
// codes.
func TestCustomEventsAndScreens(t *testing.T) {
	sc, err := NewNamedScenario("assist", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Interval: 20 * time.Millisecond,
		Screen:   "fpcustom",
		Events: []EventDef{
			{Name: "FP_ASSIST_RAW", Spec: "RAW:0x1EF7", Desc: "assists via raw code"},
			{Name: "L1D_MISSES", Spec: "L1D_READ_MISS"},
		},
		Screens: []ScreenDef{{
			Name: "fpcustom",
			Columns: []ColumnDef{
				{Name: "ipc", Header: "IPC", Format: "%5.2f", Width: 5,
					Expr: "ratio(INSTRUCTIONS, CYCLES)"},
				{Name: "asst", Header: "%ASST", Format: "%6.2f", Width: 6,
					Expr: "per100(FP_ASSIST_RAW, INSTRUCTIONS)"},
				{Name: "l1m", Header: "L1M", Format: "%6.2f", Width: 6,
					Expr: "per100(L1D_MISSES, INSTRUCTIONS)"},
			},
		}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if _, err := mon.SampleNow(); err != nil {
		t.Fatal(err)
	}
	s, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	var micro *Row
	for i := range s.Rows {
		if s.Rows[i].Command == "fpmicro-x87-inf" {
			micro = &s.Rows[i]
		}
	}
	if micro == nil {
		t.Fatalf("x87/inf micro-kernel missing from %+v", s.Rows)
	}
	// Columns: ipc, %ASST, L1M. The x87/inf kernel assists on every
	// fadd: 25 per hundred instructions (1 of the 4-instruction loop).
	if asst := micro.Columns[1]; asst < 24.9 || asst > 25.1 {
		t.Fatalf("%%ASST = %v, want ~25", asst)
	}
	if got := micro.Events["FP_ASSIST_RAW"]; got == 0 {
		t.Fatal("custom event deltas must be exposed by name")
	}
	// The registry listing shows the definitions with backend support.
	infos := mon.EventList()
	byName := map[string]EventInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	fpa := byName["FP_ASSIST_RAW"]
	if !fpa.Supported["sim"] || !fpa.Attached || fpa.Kind != "raw" {
		t.Fatalf("FP_ASSIST_RAW info = %+v", fpa)
	}
	// A custom event the machine cannot decode is rejected up front.
	bad := cfg
	bad.Events = append([]EventDef{}, cfg.Events...)
	bad.Screens = append([]ScreenDef{}, cfg.Screens...)
	bad.Events = append(bad.Events, EventDef{Name: "NODECODE", Spec: "RAW:0xDEAD"})
	bad.Screens[0].Columns = append(bad.Screens[0].Columns, ColumnDef{
		Name: "nd", Header: "ND", Expr: "mega(NODECODE)",
	})
	sc2, err := NewNamedScenario("assist", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimMonitor(sc2, bad); err == nil {
		t.Fatal("undecodable raw event accepted by the sim backend")
	}
}

func TestListEvents(t *testing.T) {
	infos, err := ListEvents(Config{
		Events: []EventDef{{Name: "X_RAW", Spec: "RAW:0x1EF7"}},
	}, MachineXeonW3550)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 16 {
		t.Fatalf("infos = %d, want 15 defaults + 1 custom", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
	var x EventInfo
	for _, info := range infos {
		if info.Name == "X_RAW" {
			x = info
		}
	}
	// Raw codes: off for the default perf_event backend, decoded by
	// the Nehalem machine model.
	if x.Supported["perf_event"] || !x.Supported["sim"] {
		t.Fatalf("X_RAW support = %+v", x.Supported)
	}
	if _, err := ListEvents(Config{}, "nope"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

// TestValidateMatchesConstructors: Config.Validate must reject exactly
// what the Monitor constructors reject — including screens whose
// identifiers do not resolve (regression: such configs passed Validate
// and only failed at construction).
func TestValidateMatchesConstructors(t *testing.T) {
	cfg := Config{
		Screen: "typo",
		Screens: []ScreenDef{{
			Name: "typo",
			Columns: []ColumnDef{
				{Name: "c", Header: "C", Expr: "ratio(CYCELS, INSTRUCTIONS)"},
			},
		}},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown identifier passed Validate")
	}
	for _, want := range []string{`"typo"`, `"c"`, `"CYCELS"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// An alias of a generic event works end to end on the sim backend
	// (regression: the virtual PMU resolved generic events by name and
	// rejected aliases).
	ok := Config{
		Interval: 20 * time.Millisecond,
		Screen:   "aliased",
		Events:   []EventDef{{Name: "INSTR_ALIAS", Spec: "INSTRUCTIONS"}},
		Screens: []ScreenDef{{
			Name: "aliased",
			Columns: []ColumnDef{
				{Name: "ipc", Header: "IPC", Expr: "ratio(INSTR_ALIAS, CYCLES)"},
			},
		}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	sc, err := NewNamedScenario("datacenter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewSimMonitor(sc, ok)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.SampleNow()
	s, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) == 0 || s.Rows[0].Columns[0] <= 0 {
		t.Fatalf("aliased IPC column = %+v", s.Rows)
	}
	// A facade event shadowing a context variable is rejected like the
	// XML path rejects it.
	shadow := Config{Events: []EventDef{{Name: "DELTA_NS", Spec: "RAW:0x1"}}}
	if err := shadow.Validate(); err == nil || !strings.Contains(err.Error(), "context variable") {
		t.Fatalf("context-variable shadowing error = %v", err)
	}
}

// TestMachineContextVars: FREQ_HZ and NUM_CPUS read the scenario's
// machine model (they were 0 in every Monitor: the facade never passed
// them to the engine).
func TestMachineContextVars(t *testing.T) {
	cfg := Config{Interval: time.Second, Screen: "hw", Screens: []ScreenDef{{Name: "hw", Columns: []ColumnDef{
		{Name: "ghz", Header: "GHz", Expr: "FREQ_HZ/1e9"},
		{Name: "ncpu", Header: "NCPU", Expr: "NUM_CPUS"},
		// A screen must count something; this is the custom column the
		// zeros silently broke: cycles per nominal cycle of the interval.
		{Name: "util", Header: "UTIL", Expr: "CYCLES/(FREQ_HZ*DELTA_NS/1e9)"},
	}}}}
	for _, name := range []MachineName{MachineE5640, MachineCortexA7} {
		sc, err := NewScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.StartSynthetic("u", "job", 1.0); err != nil {
			t.Fatal(err)
		}
		mon, err := NewSimMonitor(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		mon.SampleNow()
		s, err := mon.Sample()
		if err != nil {
			t.Fatal(err)
		}
		m := sc.Machine()
		if got := s.Rows[0].Columns; m.FreqHz == 0 || got[0] != m.FreqHz/1e9 || got[1] != float64(m.NumLogical()) || got[2] <= 0 {
			t.Errorf("%s: FREQ_HZ/1e9, NUM_CPUS, utilization = %v, want %v, %d, > 0", name, got, m.FreqHz/1e9, m.NumLogical())
		}
	}
}

// TestColumnDisplayDefaults pins the one width/format default through
// both of its callers: a custom screen definition and a wire column.
func TestColumnDisplayDefaults(t *testing.T) {
	for _, tc := range []struct {
		header, format string
		width          int
		wantFormat     string
		wantWidth      int
	}{
		{"IPC", "", 0, "%8.2f", 6},
		{"LONGHEADER", "", 0, "%8.2f", 10},
		{"IPC", "%5.1f", 4, "%5.1f", 4},
	} {
		local, _, err := Config{Screen: "s", Screens: []ScreenDef{{Name: "s", Columns: []ColumnDef{
			{Name: "c", Header: tc.header, Format: tc.format, Width: tc.width, Expr: "CYCLES"}}}}}.resolve()
		if err != nil {
			t.Fatal(err)
		}
		var rm RemoteMonitor
		rm.setColumns([]remote.Column{{Name: "c", Header: tc.header, Format: tc.format, Width: tc.width}})
		for side, sc := range map[string]*metrics.Screen{"Config.resolve": local, "RemoteMonitor.setColumns": rm.screen} {
			if c := sc.Columns[0]; c.Format != tc.wantFormat || c.Width != tc.wantWidth {
				t.Errorf("%s %+v: format %q width %d, want %q %d", side, tc, c.Format, c.Width, tc.wantFormat, tc.wantWidth)
			}
		}
	}
}

package tiptop

import (
	"fmt"
	"strings"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
	"tiptop/internal/ukernel"
)

// Scenario is a simulated machine with processes to monitor. It is the
// public handle over the machine simulator: pick a hardware preset,
// start workloads from the catalog (or custom phase models, or
// micro-kernel assembly programs), then watch them with a Monitor.
type Scenario struct {
	kernel *sched.Kernel
	seed   int64
}

// MachineName selects a hardware preset.
type MachineName string

// The paper's machines, plus two counter-constrained embedded models
// for exercising the multiplexing path (internal/mux).
const (
	MachineXeonW3550 MachineName = "w3550"  // quad-core Nehalem workstation, 3.07 GHz
	MachineE5640     MachineName = "e5640"  // bi-Xeon E5640 data-center node, 16 logical CPUs
	MachineCore2     MachineName = "core2"  // Intel Core 2
	MachinePPC970    MachineName = "ppc970" // PowerPC PPC970, 1.8 GHz
	MachineCortexA7  MachineName = "a7"     // quad-core ARM Cortex-A7, 4 PMU counters
	MachineSiFiveU74 MachineName = "u74"    // quad-core RISC-V U74, 2 programmable + fixed cycle/instret
)

// NewScenario creates an empty simulated machine.
func NewScenario(name MachineName) (*Scenario, error) {
	m, ok := machine.Presets()[string(name)]
	if !ok {
		return nil, fmt.Errorf("tiptop: unknown machine %q", name)
	}
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		return nil, err
	}
	return &Scenario{kernel: k, seed: 1}, nil
}

// Machine returns the simulated hardware description.
func (sc *Scenario) Machine() *machine.Machine { return sc.kernel.Machine() }

// Topology renders the machine topology hwloc-style (Figure 11 c).
func (sc *Scenario) Topology() string { return sc.kernel.Machine().RenderTopology() }

// nextSeed hands out deterministic per-process seeds.
func (sc *Scenario) nextSeed() int64 {
	sc.seed++
	return sc.seed
}

// WorkloadNames lists the catalog entries available to StartWorkload.
func WorkloadNames() []string {
	return []string{
		"mcf", "astar", "bwaves", "gromacs",
		"hmmer-gcc", "hmmer-icc", "sphinx3-gcc", "sphinx3-icc",
		"h264ref-gcc", "h264ref-icc", "milc-gcc", "milc-icc",
		"r-evolution", "r-evolution-clipped",
	}
}

func catalogWorkload(name string, scale float64) (*workload.Workload, error) {
	if scale <= 0 {
		scale = 1
	}
	// The R evolutionary algorithm scales by *time-step count*: each
	// 5-second iteration keeps its full length so the sampled IPC
	// pattern of Figure 3 (the 0.03 floor with brief pulses) survives
	// at any scale.
	if name == "r-evolution" || name == "r-evolution-clipped" {
		opt := workload.DefaultREvolution()
		opt.Clipped = name == "r-evolution-clipped"
		opt.HealthyIters = scaledIters(opt.HealthyIters, scale, 30)
		opt.DivergedIters = scaledIters(opt.DivergedIters, scale, 15)
		return workload.REvolution(opt), nil
	}
	w, err := baseWorkload(name)
	if err != nil {
		return nil, err
	}
	if scale != 1 {
		w = workload.Scaled(w, scale)
	}
	return w, nil
}

func scaledIters(full int, scale float64, floor int) int {
	n := int(float64(full) * scale)
	if n < floor {
		n = floor
	}
	if n > full {
		n = full
	}
	return n
}

func baseWorkload(name string) (*workload.Workload, error) {
	switch name {
	case "mcf":
		return workload.MCF(), nil
	case "astar":
		return workload.Astar(), nil
	case "bwaves":
		return workload.Bwaves(), nil
	case "gromacs":
		return workload.Gromacs(), nil
	case "hmmer-gcc":
		return workload.HmmerGCC(), nil
	case "hmmer-icc":
		return workload.HmmerICC(), nil
	case "sphinx3-gcc":
		return workload.Sphinx3GCC(), nil
	case "sphinx3-icc":
		return workload.Sphinx3ICC(), nil
	case "h264ref-gcc":
		return workload.H264RefGCC(), nil
	case "h264ref-icc":
		return workload.H264RefICC(), nil
	case "milc-gcc":
		return workload.MilcGCC(), nil
	case "milc-icc":
		return workload.MilcICC(), nil
	}
	return nil, fmt.Errorf("tiptop: unknown workload %q", name)
}

// StartWorkload launches a catalog workload as a process owned by user.
// scale shrinks the run (1.0 = the paper's full length; 0.01 is a good
// interactive default). pinned optionally restricts it to logical CPUs
// (taskset semantics); empty means no affinity. It returns the PID.
func (sc *Scenario) StartWorkload(user, name string, scale float64, pinned ...int) (int, error) {
	w, err := catalogWorkload(name, scale)
	if err != nil {
		return 0, err
	}
	in, err := workload.NewInstance(w, sc.nextSeed())
	if err != nil {
		return 0, err
	}
	task := sc.kernel.Spawn(user, w.Name, in, maskOf(pinned))
	return task.ID().PID, nil
}

// SyntheticJob describes an endless synthetic process: a target solo IPC
// plus an optional memory appetite, which is what makes a job sensitive
// to (or an aggressor in) shared-cache contention, the mechanism behind
// the paper's §3.4 scenarios.
type SyntheticJob struct {
	Name string
	// IPC is the target solo instructions-per-cycle.
	IPC float64
	// MemRefsPKI is memory references per thousand instructions
	// (0 = a light default).
	MemRefsPKI float64
	// HotMB / WarmMB shape the working set: the hot region always
	// fits in cache; the warm region is where a shrinking shared-LLC
	// share starts to hurt.
	HotMB, WarmMB float64
	// MidProb (default 0.94) is the hit probability once HotMB fit;
	// raising it toward 1 shrinks the contention-sensitive band.
	MidProb float64
}

// StartSynthetic launches an endless CPU-bound job with the given target
// IPC (as in the Figure 1 data-center snapshot).
func (sc *Scenario) StartSynthetic(user, name string, ipc float64, pinned ...int) (int, error) {
	return sc.StartSyntheticJob(user, SyntheticJob{Name: name, IPC: ipc}, pinned...)
}

// StartSyntheticJob launches a fully specified synthetic job.
func (sc *Scenario) StartSyntheticJob(user string, job SyntheticJob, pinned ...int) (int, error) {
	if job.IPC <= 0 || job.IPC > 4 {
		return 0, fmt.Errorf("tiptop: synthetic IPC %v out of (0, 4]", job.IPC)
	}
	spec := workload.SyntheticSpec{
		Name:       job.Name,
		IPC:        job.IPC,
		MemRefsPKI: job.MemRefsPKI,
		HotBytes:   job.HotMB * (1 << 20),
		WarmBytes:  job.WarmMB * (1 << 20),
		MidProb:    job.MidProb,
	}
	spin, err := workload.NewSpin(workload.Synthetic(spec), sc.nextSeed())
	if err != nil {
		return 0, err
	}
	task := sc.kernel.Spawn(user, job.Name, spin, maskOf(pinned))
	return task.ID().PID, nil
}

// StartMicroKernel assembles src in the tiny assembly language of the
// micro-kernel VM (see internal/ukernel) and runs it as a process. The
// VM's exact event counts make such processes ideal for validating
// counter readings.
func (sc *Scenario) StartMicroKernel(user, name, src string, pinned ...int) (int, error) {
	prog, err := ukernel.Assemble(src)
	if err != nil {
		return 0, err
	}
	runner, err := ukernel.NewRunner(name, prog, nil, sc.kernel.Machine())
	if err != nil {
		return 0, err
	}
	task := sc.kernel.Spawn(user, name, runner, maskOf(pinned))
	return task.ID().PID, nil
}

// StartFPMicro runs the paper's Figure 4 micro-benchmark: mode is "x87"
// or "sse", values is "finite", "inf" or "nan".
func (sc *Scenario) StartFPMicro(user, mode, values string, iterations int64) (int, error) {
	var fpMode ukernel.FPMode
	switch mode {
	case "x87":
		fpMode = ukernel.FPModeX87
	case "sse":
		fpMode = ukernel.FPModeSSE
	default:
		return 0, fmt.Errorf("tiptop: fp mode %q (want x87 or sse)", mode)
	}
	var fpVals ukernel.FPValues
	switch values {
	case "finite":
		fpVals = ukernel.FPFinite
	case "inf":
		fpVals = ukernel.FPInfinite
	case "nan":
		fpVals = ukernel.FPNaN
	default:
		return 0, fmt.Errorf("tiptop: fp values %q (want finite, inf or nan)", values)
	}
	if iterations <= 0 {
		iterations = 1_000_000
	}
	prog, inputs := ukernel.FPMicroKernel(fpMode, fpVals, iterations)
	name := "fpmicro-" + mode + "-" + values
	runner, err := ukernel.NewRunner(name, prog, inputs, sc.kernel.Machine())
	if err != nil {
		return 0, err
	}
	task := sc.kernel.Spawn(user, name, runner, nil)
	return task.ID().PID, nil
}

// AddSyntheticThread adds a thread to an existing process. Together with
// Config.PerThread it exercises the paper's per-thread vs per-process
// counting distinction (§2.2) — including the footnote-3 caveat that a
// spin-waiting thread inflates a process-level IPC with useless work.
func (sc *Scenario) AddSyntheticThread(pid int, job SyntheticJob, pinned ...int) (int, error) {
	leader, ok := sc.kernel.Task(pid)
	if !ok {
		return 0, fmt.Errorf("tiptop: no process %d", pid)
	}
	if job.IPC <= 0 || job.IPC > 4 {
		return 0, fmt.Errorf("tiptop: synthetic IPC %v out of (0, 4]", job.IPC)
	}
	spec := workload.SyntheticSpec{
		Name:       job.Name,
		IPC:        job.IPC,
		MemRefsPKI: job.MemRefsPKI,
		HotBytes:   job.HotMB * (1 << 20),
		WarmBytes:  job.WarmMB * (1 << 20),
		MidProb:    job.MidProb,
	}
	spin, err := workload.NewSpin(workload.Synthetic(spec), sc.nextSeed())
	if err != nil {
		return 0, err
	}
	t, err := sc.kernel.SpawnThread(leader, spin, maskOf(pinned))
	if err != nil {
		return 0, err
	}
	return t.ID().TID, nil
}

// TaskTotal returns the simulator's exact cumulative count of a named
// event (CYCLES, INSTRUCTIONS, ...) for process pid since it started —
// the ground truth that extrapolated multiplexed counts are validated
// against in the mux convergence tests.
func (sc *Scenario) TaskTotal(pid int, event string) (uint64, error) {
	t, ok := sc.kernel.Task(pid)
	if !ok {
		return 0, fmt.Errorf("tiptop: no process %d", pid)
	}
	return t.Totals().Count(event), nil
}

// Kill terminates a process.
func (sc *Scenario) Kill(pid int) error { return sc.kernel.Kill(pid) }

// Running reports whether the process is still alive.
func (sc *Scenario) Running(pid int) bool {
	t, ok := sc.kernel.Task(pid)
	return ok && t.State() != sched.TaskExited
}

// Now returns the simulated time.
func (sc *Scenario) Now() time.Duration { return sc.kernel.Now() }

// Advance runs the simulation forward without sampling (a Monitor's
// Sample() also advances time by its interval).
func (sc *Scenario) Advance(d time.Duration) { sc.kernel.Advance(d) }

func maskOf(cpus []int) machine.AffinityMask {
	if len(cpus) == 0 {
		return nil
	}
	ids := make([]machine.CPUID, len(cpus))
	for i, c := range cpus {
		ids[i] = machine.CPUID(c)
	}
	return machine.MaskOf(ids...)
}

// backend, source and clock wire the scenario into a Monitor.
func (sc *Scenario) backend() hpm.Backend { return pmu.New(sc.kernel) }

func (sc *Scenario) source() *proc.Source {
	return proc.NewSource(sc.kernel)
}

func (sc *Scenario) clock() core.Clock { return proc.NewClock(sc.kernel) }

// ScenarioManyTasks builds a production-scale stress scenario: the
// bi-Xeon data-center node running n endless synthetic jobs with varied
// IPC targets and memory appetites (workload.ManyTaskSpec), spread
// across a handful of users. It exercises the engine's sampling path
// at task counts far beyond the paper's interactive screens
// (thousands of rows per refresh).
func ScenarioManyTasks(n int) (*Scenario, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tiptop: many-task scenario needs n > 0, got %d", n)
	}
	sc, err := NewScenario(MachineE5640)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		spec := workload.ManyTaskSpec(i)
		spin, err := workload.NewSpin(workload.Synthetic(spec), sc.nextSeed())
		if err != nil {
			return nil, err
		}
		sc.kernel.Spawn(workload.ManyTaskUser(i), spec.Name, spin, nil)
	}
	return sc, nil
}

// scenarios is the ordered table of ready-made scenarios, the ones
// behind the tiptop/tiptopd -sim flag: ScenarioNames, ScenarioMachine,
// NewNamedScenario and its error text all read it. build populates the
// empty machine; scale shrinks workload lengths (1.0 = the paper's, 0.01
// is a good interactive default; endless jobs ignore it).
var scenarios = []struct {
	name    string
	machine MachineName
	build   func(sc *Scenario, scale float64) error
}{
	// The Nehalem workstation running a mix of SPEC-like jobs.
	{"spec", MachineXeonW3550, func(sc *Scenario, scale float64) error {
		for _, w := range []string{"mcf", "astar", "gromacs", "hmmer-gcc"} {
			if _, err := sc.StartWorkload("user", w, scale); err != nil {
				return err
			}
		}
		return nil
	}},
	// The Figure 3 R evolutionary algorithm.
	{"revolution", MachineXeonW3550, func(sc *Scenario, scale float64) error {
		_, err := sc.StartWorkload("biologist", "r-evolution", scale)
		return err
	}},
	// The Figure 11 co-run: three mcf copies pinned to distinct physical
	// cores, the taskset setup.
	{"conflict", MachineXeonW3550, func(sc *Scenario, scale float64) error {
		for i := 0; i < 3; i++ {
			if _, err := sc.StartWorkload("user", "mcf", scale, i); err != nil {
				return err
			}
		}
		return nil
	}},
	// The Figure 1 bi-Xeon grid node with eleven synthetic jobs at the
	// paper's observed IPCs.
	{"datacenter", MachineE5640, func(sc *Scenario, _ float64) error {
		ipcs := []float64{1.97, 1.32, 2.27, 2.36, 1.17, 0.66, 1.73, 1.44, 1.39, 1.39, 1.62}
		users := []string{"user1", "user3", "user1", "user1", "user3", "user2",
			"user1", "user1", "user1", "user1", "user1"}
		for i, ipc := range ipcs {
			name := fmt.Sprintf("process%d", i+1)
			if _, err := sc.StartSynthetic(users[i], name, ipc); err != nil {
				return err
			}
		}
		return nil
	}},
	// §3.1 in miniature: the Nehalem workstation running the Figure 4 FP
	// micro-kernel on non-finite operands (every x87 add takes the
	// micro-code assist path) next to its finite twin and a steady
	// synthetic control job. The assists are an architecture-specific
	// event: watch them through the fp screen, or through a custom
	// screen referencing the raw code (<event name="..." raw="0x1EF7"/>).
	{"assist", MachineXeonW3550, func(sc *Scenario, scale float64) error {
		iters := int64(500_000_000 * scale)
		if iters < 100_000 {
			iters = 100_000
		}
		for _, values := range []string{"inf", "finite"} {
			if _, err := sc.StartFPMicro("fpdev", "x87", values, iters); err != nil {
				return err
			}
		}
		_, err := sc.StartSynthetic("ops", "control", 1.50)
		return err
	}},
	// Endless constant-rate synthetic jobs on the quad-core Cortex-A7,
	// whose four PMU counters force counter rotation for any wide
	// screen — the validation bed for internal/mux. One job per core,
	// each pinned so rates stay constant across the whole run: the ideal
	// regime for validating rotation-extrapolated counts against
	// TaskTotal ground truth.
	{"steady", MachineCortexA7, func(sc *Scenario, _ float64) error {
		jobs := []SyntheticJob{
			{Name: "steady-cpu", IPC: 1.60},
			{Name: "steady-mix", IPC: 1.10, MemRefsPKI: 120},
			{Name: "steady-mem", IPC: 0.70, MemRefsPKI: 300, HotMB: 0.5, WarmMB: 4},
			{Name: "steady-low", IPC: 0.40, MemRefsPKI: 200, HotMB: 0.25, WarmMB: 2},
		}
		for i, job := range jobs {
			if _, err := sc.StartSyntheticJob("bench", job, i); err != nil {
				return err
			}
		}
		return nil
	}},
	// The §2.4 counter-validation oracle in interactive form: every
	// ukernel.ValidationSuite micro-kernel as a live process on the
	// 4-counter Cortex-A7, so the screen shows analytically known counts
	// through the full mux path (the batch twin, asserted on all four
	// machine models, is tipbench -validate). At their analytic lengths
	// the kernels halt within a fraction of a millisecond of simulated
	// time, so the loop bound (in r1 by suite convention) is stretched
	// with scale to give refreshes something to observe — the loop
	// bodies, and therefore the per-iteration event rates the oracle
	// derives, are unchanged. Use a small delay (-d 0.001) to catch them
	// alive.
	{"validate", MachineCortexA7, func(sc *Scenario, scale float64) error {
		factor := int64(2000 * scale)
		if factor < 1 {
			factor = 1
		}
		for _, vk := range ukernel.ValidationSuite() {
			if n, ok := vk.Inputs.IntRegs[1]; ok {
				vk.Inputs.IntRegs[1] = n * factor
			}
			runner, err := ukernel.NewRunner(vk.Name, vk.Program, vk.Inputs, sc.kernel.Machine())
			if err != nil {
				return err
			}
			sc.kernel.Spawn("oracle", vk.Name, runner, nil)
		}
		return nil
	}},
}

// ScenarioNames lists the ready-made scenarios NewNamedScenario builds.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return names
}

// ScenarioMachine names the machine preset a ready-made scenario runs
// on; ok is false for a name NewNamedScenario would reject.
func ScenarioMachine(name string) (machine MachineName, ok bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s.machine, true
		}
	}
	return "", false
}

// NewNamedScenario builds one of the ready-made scenarios (ScenarioNames)
// on its machine. scale shrinks workload lengths: 1.0 is the paper's,
// 0.01 a good interactive default.
func NewNamedScenario(name string, scale float64) (*Scenario, error) {
	for _, s := range scenarios {
		if s.name != name {
			continue
		}
		sc, err := NewScenario(s.machine)
		if err != nil {
			return nil, err
		}
		if err := s.build(sc, scale); err != nil {
			return nil, err
		}
		return sc, nil
	}
	names := ScenarioNames()
	return nil, fmt.Errorf("tiptop: unknown scenario %q (want %s or %s)",
		name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}

// ScenarioSPEC builds a ready-made scenario: the Nehalem workstation
// running a small mix of SPEC-like workloads — a convenient quickstart.
func ScenarioSPEC() *Scenario {
	sc, err := NewScenario(MachineXeonW3550)
	if err != nil {
		panic(err) // presets are known-valid
	}
	for _, name := range []string{"mcf", "gromacs", "hmmer-gcc"} {
		if _, err := sc.StartWorkload("user", name, 0.01); err != nil {
			panic(err)
		}
	}
	return sc
}

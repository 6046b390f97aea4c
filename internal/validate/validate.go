// Package validate is the counter-validation oracle: a conformance
// harness that runs every micro-kernel of ukernel.ValidationSuite() as
// a live workload under a real core.Session — per machine model — and
// asserts the measured counts at every layer of the pipeline against
// the kernel's analytic expectations and the VM oracle.
//
// The paper's §2.4 methodology validates instruction counts with
// micro-kernels whose event counts are known by inspecting the
// assembly; internal/experiments exercises that VM-level. This package
// asserts that those counts survive the path users actually see:
//
//	attach → refresh → mux rotation/extrapolation
//	       → store append → recovery → expression query
//
// Four layers are checked per kernel × model × event:
//
//	session   raw engine deltas summed over the run. On models whose
//	          PMU holds the whole screen (Xeon W3550, PPC970) — and
//	          for fixed counters that never rotate (the U74's
//	          cycle/instret CSRs) — the sum must be EXACT.
//	mux       the same sums where counter pressure forced rotation
//	          (Cortex-A7: 8 events on 4 counters; SiFive U74: 6 on 2).
//	          Extrapolated counts must converge within the tolerance.
//	store     append → close → recover → QueryExpr round-trip: the
//	          queried sums must equal the session sums exactly,
//	          mux or not (fidelity of the durable path, not of the
//	          extrapolation, is under test).
//	query     derived expressions (IPC, LLC misses per 100
//	          instructions) evaluated through internal/query over the
//	          recovered store, against oracle-derived values.
//
// Events a model legitimately lacks (PPC970 has no FP-assist raw
// code) are reported as unsupported — never as a zero count.
package validate

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/query"
	"tiptop/internal/sim/cpu"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/store"
	"tiptop/internal/ukernel"
)

// Layer names of Entry.Layer.
const (
	// LayerAnalytic compares the VM oracle against the kernel's
	// analytic instruction count (the §2.4 hand-derived expectation).
	LayerAnalytic = "analytic"
	// LayerSession is the unconstrained live path: raw engine deltas.
	LayerSession = "session"
	// LayerMux is the live path under counter pressure: rotation plus
	// Enabled/Running extrapolation.
	LayerMux = "mux"
	// LayerStore is the durable round-trip: append, recover, QueryExpr.
	LayerStore = "store"
	// LayerQuery is a derived expression through internal/query.
	LayerQuery = "query"
)

// baseEvents is the validation screen: eight slot-costing hardware
// events, sized so the PPC970's eight counters still hold all of them
// (the unconstrained reference) while the Cortex-A7 (4 counters) and
// SiFive U74 (2 programmable + fixed cycle/instret) are forced to
// rotate.
var baseEvents = []string{
	hpm.EventCycles,
	hpm.EventInstructions,
	hpm.EventBranches,
	hpm.EventBranchMisses,
	hpm.EventCacheMisses,
	hpm.EventLoads,
	hpm.EventStores,
	hpm.EventFPOps,
}

// optionalEvents are architecture-specific: validated where the model
// implements them, reported unsupported elsewhere.
var optionalEvents = []string{hpm.EventFPAssist}

// storeEvents are the counters the durable record format carries per
// row; the store and query layers validate through these.
var storeEvents = []string{hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses}

// Options configure a harness run.
type Options struct {
	// Models are machine preset keys (machine.Presets()); nil runs
	// DefaultModels().
	Models []string
	// RefreshTarget is roughly how many refresh intervals the live run
	// should span: the sampling interval is derived per kernel × model
	// from an oracle pre-run so every kernel sees enough rotations for
	// extrapolation to converge. Default 150.
	RefreshTarget int
	// MuxTolerance is the worst relative error allowed on
	// mux-extrapolated counts (default 0.05). Derived expressions that
	// mix extrapolated events get twice this band — a quotient
	// compounds the error of both operands.
	MuxTolerance float64
	// MuxAbsSlack is the absolute-count slack on mux-extrapolated
	// entries (default 64). Rotation sub-samples the run, so an event
	// that fires only a handful of times — the branch predictor's two
	// warm-up/exit misses, say — is either missed entirely or caught
	// once and multiplied by the rotation factor; no extrapolation can
	// place a two-count burst within 5%. A muxed entry therefore also
	// passes when |measured-expected| <= MuxAbsSlack: the relative band
	// governs every count large enough for extrapolation to be
	// statistically meaningful, the slack the ones that are not.
	MuxAbsSlack float64
	// ScratchDir holds the per-run store directories; empty uses a
	// fresh temporary directory, removed afterwards.
	ScratchDir string
}

// DefaultModels returns the four conformance models: the two
// unconstrained references and the two counter-starved embedded models
// that force multiplexing.
func DefaultModels() []string { return []string{"w3550", "ppc970", "a7", "u74"} }

// Entry is one assertion of the conformance matrix: kernel × model ×
// layer × event, with the expectation, the measurement and the error.
type Entry struct {
	Kernel string `json:"kernel"`
	Model  string `json:"model"`
	Layer  string `json:"layer"`
	Event  string `json:"event"`
	// Expected and Measured are counts for the counter layers and
	// dimensionless values for the derived-expression layer.
	Expected float64 `json:"expected"`
	Measured float64 `json:"measured"`
	// RelError is |measured-expected| / expected (0 when both are 0,
	// 1 when only the expectation is 0).
	RelError float64 `json:"rel_error"`
	// Exact marks entries that must match exactly: every layer not
	// diluted by rotation extrapolation.
	Exact bool `json:"exact"`
	// Muxed marks entries whose measurement passed through rotation
	// extrapolation; these get the tolerance band instead.
	Muxed bool `json:"muxed,omitempty"`
	// Supported is false when the model does not implement the event;
	// such entries carry no counts and always pass — the contract is
	// that missing hardware is reported, not silently zero.
	Supported bool   `json:"supported"`
	Pass      bool   `json:"pass"`
	Note      string `json:"note,omitempty"`
}

// Report is the machine-readable result of a harness run — what
// tipbench -validate writes to results/VALIDATE.json and CI gates on.
type Report struct {
	Models       []string `json:"models"`
	Kernels      []string `json:"kernels"`
	MuxTolerance float64  `json:"mux_tolerance"`
	MuxAbsSlack  float64  `json:"mux_abs_slack"`
	Entries      []Entry  `json:"entries"`
	// WorstMuxedRelError is the worst relative error over every muxed
	// entry whose absolute miss exceeds MuxAbsSlack — the entries the
	// relative band governs. (Counter and derived layers; the derived
	// band is reported against its doubled tolerance by Pass, but the
	// raw worst error is published here.)
	WorstMuxedRelError float64 `json:"worst_muxed_rel_error"`
	// ExactViolations counts exact-layer entries that did not match.
	ExactViolations int `json:"exact_violations"`
	// UnsupportedEvents counts event × model pairs reported as not
	// implemented (e.g. FP_ASSIST outside the Nehalem model).
	UnsupportedEvents int  `json:"unsupported_events"`
	Pass              bool `json:"pass"`
}

// Run executes the conformance matrix.
func Run(opt Options) (*Report, error) {
	if opt.RefreshTarget <= 0 {
		opt.RefreshTarget = 150
	}
	if opt.MuxTolerance <= 0 {
		opt.MuxTolerance = 0.05
	}
	if opt.MuxAbsSlack <= 0 {
		opt.MuxAbsSlack = 64
	}
	models := opt.Models
	if len(models) == 0 {
		models = DefaultModels()
	}
	scratch := opt.ScratchDir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "tiptop-validate")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}
	presets := machine.Presets()
	suite := ukernel.ValidationSuite()
	rep := &Report{Models: models, MuxTolerance: opt.MuxTolerance, MuxAbsSlack: opt.MuxAbsSlack, Pass: true}
	for _, k := range suite {
		rep.Kernels = append(rep.Kernels, k.Name)
	}
	for _, name := range models {
		m, ok := presets[name]
		if !ok {
			return nil, fmt.Errorf("validate: unknown machine model %q", name)
		}
		for _, k := range suite {
			entries, err := runOne(name, m, k, opt, scratch)
			if err != nil {
				return nil, fmt.Errorf("validate: %s on %s: %w", k.Name, name, err)
			}
			rep.Entries = append(rep.Entries, entries...)
		}
	}
	for i := range rep.Entries {
		e := &rep.Entries[i]
		switch {
		case !e.Supported:
			rep.UnsupportedEvents++
		case e.Muxed:
			if math.Abs(e.Measured-e.Expected) > opt.MuxAbsSlack && e.RelError > rep.WorstMuxedRelError {
				rep.WorstMuxedRelError = e.RelError
			}
		case e.Exact && !e.Pass:
			rep.ExactViolations++
		}
		if !e.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

// validationScreen builds a screen whose columns reference exactly the
// given events, so the session resolves and attaches precisely the
// validation set and every row carries each one's per-refresh delta.
func validationScreen(events []string) *metrics.Screen {
	s := &metrics.Screen{Name: "validate"}
	for _, ev := range events {
		s.Columns = append(s.Columns, &metrics.Column{
			Name: ev, Header: ev, Width: 12, Format: "%12.0f",
			Expr: metrics.MustCompile(ev),
			Desc: "per-refresh delta of " + ev,
		})
	}
	return s
}

// oracleCounts executes the kernel to completion on a private VM — the
// ground truth. The live run replays the identical deterministic
// instruction stream, so its VM totals equal this pre-run; the pre-run
// additionally prices the sampling interval off the exact cycle count.
func oracleCounts(k ukernel.ValidationKernel, m *machine.Machine) (cpu.Delta, error) {
	r, err := ukernel.NewRunner(k.Name, k.Program, k.Inputs, m)
	if err != nil {
		return cpu.Delta{}, err
	}
	if _, err := r.VM().Run(0); err != nil {
		return cpu.Delta{}, err
	}
	if !r.Done() {
		return cpu.Delta{}, fmt.Errorf("oracle run did not halt")
	}
	return r.VM().Counts(), nil
}

// relError computes |measured-expected|/expected with the zero
// conventions of Entry.RelError.
func relError(expected, measured float64) float64 {
	if expected == 0 {
		if measured == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(measured-expected) / math.Abs(expected)
}

// exactEps tolerates float summation noise on exact layers. Counter
// sums are integers below 2^53 so they compare exactly; derived
// quotients may differ in the last ulp depending on evaluation order.
const exactEps = 1e-9

func checkEntry(e *Entry, tolerance, absSlack float64) {
	e.RelError = relError(e.Expected, e.Measured)
	switch {
	case e.Exact:
		e.Pass = e.RelError <= exactEps
	case e.RelError <= tolerance:
		e.Pass = true
	case absSlack > 0 && math.Abs(e.Measured-e.Expected) <= absSlack:
		// Too few occurrences for rotation sub-sampling to resolve:
		// judged by absolute miss, not relative.
		e.Pass = true
		e.Note = "within absolute slack: count too small to extrapolate"
	default:
		e.Pass = false
	}
}

// runOne drives one kernel on one model through the full pipeline and
// returns its slice of the conformance matrix.
func runOne(model string, m *machine.Machine, vk ukernel.ValidationKernel, opt Options, scratch string) ([]Entry, error) {
	oracle, err := oracleCounts(vk, m)
	if err != nil {
		return nil, err
	}
	// The analytic layer: the §2.4 hand-derived instruction count must
	// match the VM oracle on every model, exactly.
	entries := []Entry{{
		Kernel: vk.Name, Model: model, Layer: LayerAnalytic, Event: hpm.EventInstructions,
		Expected: float64(vk.ExpectedInstructions), Measured: float64(oracle.Instructions),
		Exact: true, Supported: true,
	}}
	checkEntry(&entries[0], opt.MuxTolerance, 0)

	// Price the sampling interval so the run spans ~RefreshTarget
	// refreshes: enough rotations for extrapolation to converge, and
	// the same refresh cadence regardless of kernel length.
	intervalNS := float64(oracle.Cycles) / m.FreqHz * 1e9 / float64(opt.RefreshTarget)
	interval := time.Duration(intervalNS)
	if interval < 100*time.Nanosecond {
		interval = 100 * time.Nanosecond
	}

	kern, err := sched.New(m, sched.Options{})
	if err != nil {
		return nil, err
	}
	runner, err := ukernel.NewRunner(vk.Name, vk.Program, vk.Inputs, m)
	if err != nil {
		return nil, err
	}
	task := kern.Spawn("validate", vk.Name, runner, nil)
	pid := task.ID().PID

	inner := pmu.New(kern)
	registry := hpm.DefaultRegistry()
	events := append([]string(nil), baseEvents...)
	for _, name := range optionalEvents {
		d, err := registry.ParseEvent(name)
		if err == nil && inner.Supported(d) {
			events = append(events, name)
			continue
		}
		entries = append(entries, Entry{
			Kernel: vk.Name, Model: model, Layer: LayerSession, Event: name,
			Supported: false, Pass: true,
			Note: "event not implemented by this machine model; reported unsupported, not zero",
		})
	}
	screen := validationScreen(events)
	descs, err := core.ResolveScreenEvents(registry, screen)
	if err != nil {
		return nil, err
	}
	// Rotation pressure: does the screen fit the PMU? Per event, a
	// measurement is extrapolated only when rotation is active AND the
	// event costs a slot — the U74's fixed cycle/instret CSRs stay
	// attached and exact even while its two programmable counters
	// rotate.
	capacity := inner.Capacity()
	slotCost := make(map[string]int, len(descs))
	total := 0
	for _, d := range descs {
		slotCost[d.Name] = inner.SlotCost(d)
		total += inner.SlotCost(d)
	}
	rotation := capacity > 0 && total > capacity
	muxedEvent := func(name string) bool { return rotation && slotCost[name] > 0 }

	src := proc.NewSource(kern)
	src.IncludeExited = true
	sess, err := core.NewSession(mux.Wrap(inner), src, proc.NewClock(kern), core.Options{
		Screen:   screen,
		Interval: interval,
		FreqHz:   m.FreqHz,
		NumCPUs:  m.NumLogical(),
		SortBy:   "pid",
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	dir := filepath.Join(scratch, model+"-"+vk.Name)
	st, err := store.Open(dir, store.Options{NoDownsample: true})
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(screen.Columns))
	for i, c := range screen.Columns {
		cols[i] = c.Name
	}
	st.SetColumns(cols)

	// The live run: attach at t=0 (nothing has executed yet, so the
	// perf "only events after attach" semantics still observe the whole
	// program), then refresh until the kernel exits — the final sample
	// reads the partial last interval of the then-zombie task.
	sums := make(map[string]uint64, len(events))
	maxSamples := opt.RefreshTarget*3 + 32
	done := false
	for i := 0; i < maxSamples; i++ {
		sample, err := sess.Update()
		if err != nil {
			st.Close()
			return nil, err
		}
		for r := range sample.Rows {
			row := &sample.Rows[r]
			if row.Info.ID.PID != pid {
				continue
			}
			for _, ev := range events {
				sums[ev] += row.Count(ev)
			}
		}
		if err := st.AppendSample(sample); err != nil {
			st.Close()
			return nil, err
		}
		if task.State() == sched.TaskExited {
			done = true
			break
		}
		sess.AdvanceClock()
	}
	if !done {
		st.Close()
		return nil, fmt.Errorf("kernel did not finish within %d refreshes", maxSamples)
	}
	if got := runner.VM().Counts(); got != oracle {
		st.Close()
		return nil, fmt.Errorf("live VM diverged from oracle pre-run: %+v vs %+v", got, oracle)
	}

	// Layers a/b: raw engine deltas (exact) or mux extrapolation
	// (tolerance band), per event.
	for _, ev := range events {
		muxed := muxedEvent(ev)
		layer := LayerSession
		if muxed {
			layer = LayerMux
		}
		e := Entry{
			Kernel: vk.Name, Model: model, Layer: layer, Event: ev,
			Expected: float64(oracle.Count(ev)), Measured: float64(sums[ev]),
			Exact: !muxed, Muxed: muxed, Supported: true,
		}
		checkEntry(&e, opt.MuxTolerance, opt.MuxAbsSlack)
		entries = append(entries, e)
	}

	// Layer c: store round-trip. Close seals the buffered tail; the
	// reopen exercises recovery; the query must reproduce the session
	// sums exactly — extrapolated or not, what the engine measured is
	// what the store must persist.
	if err := st.Close(); err != nil {
		return nil, err
	}
	st2, err := store.Open(dir, store.Options{NoDownsample: true})
	if err != nil {
		return nil, err
	}
	defer st2.Close()
	step := st2.LastTime().Seconds()*2 + 1
	known := query.KnownNames(cols)
	queryOne := func(expr string) (float64, error) {
		c, err := query.Compile(expr, known)
		if err != nil {
			return 0, err
		}
		res, err := query.QueryStore(st2, c, query.Options{StepSeconds: step})
		if err != nil {
			return 0, err
		}
		for _, s := range res.Series {
			if s.PID != pid || s.Total {
				continue
			}
			var sum float64
			for _, p := range s.Points {
				sum += p.Value
			}
			return sum, nil
		}
		return 0, fmt.Errorf("query %q returned no series for pid %d", expr, pid)
	}
	for _, ev := range storeEvents {
		measured, err := queryOne("delta(" + ev + ")")
		if err != nil {
			return nil, err
		}
		e := Entry{
			Kernel: vk.Name, Model: model, Layer: LayerStore, Event: ev,
			Expected: float64(sums[ev]), Measured: measured,
			Exact: true, Supported: true,
		}
		checkEntry(&e, opt.MuxTolerance, 0)
		entries = append(entries, e)
	}

	// Layer d: derived expressions through internal/query, against
	// oracle-derived values. A quotient of two extrapolated counts can
	// compound both errors, so muxed derived entries get twice the
	// band; quotients of exact counts (and of the U74's fixed
	// counters) stay exact.
	derived := []struct {
		event, expr string
		expected    float64
		muxed       bool
	}{
		{
			event: "IPC", expr: "ratio(INSTRUCTIONS, CYCLES)",
			expected: float64(oracle.Instructions) / float64(oracle.Cycles),
			muxed:    muxedEvent(hpm.EventInstructions) || muxedEvent(hpm.EventCycles),
		},
		{
			event: "LLC_MISS_PER100", expr: "per100(CACHE_MISSES, INSTRUCTIONS)",
			expected: 100 * float64(oracle.LLCMisses) / float64(oracle.Instructions),
			muxed:    muxedEvent(hpm.EventCacheMisses) || muxedEvent(hpm.EventInstructions),
		},
	}
	for _, d := range derived {
		measured, err := queryOne(d.expr)
		if err != nil {
			return nil, err
		}
		e := Entry{
			Kernel: vk.Name, Model: model, Layer: LayerQuery, Event: d.event,
			Expected: d.expected, Measured: measured,
			Exact: !d.muxed, Muxed: d.muxed, Supported: true,
		}
		checkEntry(&e, 2*opt.MuxTolerance, 0)
		entries = append(entries, e)
	}
	return entries, nil
}

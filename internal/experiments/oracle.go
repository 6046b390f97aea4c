package experiments

// The counter-validation oracle: a conformance harness that runs every
// micro-kernel of ukernel.ValidationSuite() as a process of a
// tiptop.Scenario — per machine model — and asserts the measured counts
// at every layer against the kernel's analytic expectations and the VM
// oracle. The paper's §2.4 methodology validates instruction counts
// with micro-kernels whose event counts are known by inspecting the
// assembly; val24 is a view of this harness's report. The oracle
// asserts that those counts survive the path users actually run — a
// tiptopd daemon over the scenario, its default store, and store
// queries:
//
//	attach → refresh → mux rotation/extrapolation
//	       → store append → recovery → expression query
//
// Four layers are checked per kernel × model × event:
//
//	session   the sample rows' event deltas summed over the run. On
//	          models whose PMU holds the whole screen (Xeon W3550,
//	          PPC970) — and for fixed counters that never rotate (the
//	          U74's cycle/instret CSRs) — the sum must be EXACT.
//	mux       the same sums where counter pressure forced rotation
//	          (Cortex-A7: 8 events on 4 counters; SiFive U74: 6 on 2).
//	          Extrapolated counts must converge within the tolerance.
//	store     append → close → recover → QueryExpr round-trip: the
//	          queried sums must equal the session sums exactly,
//	          mux or not (fidelity of the durable path, not of the
//	          extrapolation, is under test).
//	query     derived expressions (IPC, LLC misses per 100
//	          instructions) queried from the recovered store, against
//	          oracle-derived values.
//
// Events a model legitimately lacks (PPC970 has no FP-assist raw
// code) are reported as unsupported — never as a zero count.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"tiptop"
	"tiptop/internal/hpm"
	"tiptop/internal/sim/cpu"
	"tiptop/internal/sim/machine"
	"tiptop/internal/ukernel"
)

// Layer names of OracleEntry.Layer.
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
	// LayerQuery is a derived expression queried from the store.
	LayerQuery = "query"
)

const (
	// oracleRefreshTarget is roughly how many refresh intervals a live
	// run spans: the sampling interval is derived per kernel × model
	// from an oracle pre-run so every kernel sees enough rotations for
	// extrapolation to converge.
	oracleRefreshTarget = 150
	// oracleMuxTolerance is the worst relative error allowed on
	// mux-extrapolated counts. Derived expressions that mix
	// extrapolated events get twice this band — a quotient compounds
	// the error of both operands.
	oracleMuxTolerance = 0.05
	// oracleMuxAbsSlack is the absolute-count slack on mux-extrapolated
	// entries. Rotation sub-samples the run, so an event that fires
	// only a handful of times — the branch predictor's two
	// warm-up/exit misses, say — is either missed entirely or caught
	// once and multiplied by the rotation factor; no extrapolation can
	// place a two-count burst within 5%. A muxed entry therefore also
	// passes when |measured-expected| <= oracleMuxAbsSlack: the
	// relative band governs every count large enough for extrapolation
	// to be statistically meaningful, the slack the ones that are not.
	oracleMuxAbsSlack = 64
)

// oracleModels are the four conformance models: the two unconstrained
// references and the two counter-starved embedded models that force
// multiplexing.
var oracleModels = []tiptop.MachineName{
	tiptop.MachineXeonW3550, tiptop.MachinePPC970, tiptop.MachineCortexA7, tiptop.MachineSiFiveU74,
}

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

// OracleEntry is one assertion of the conformance matrix: kernel ×
// model × layer × event, with the expectation, the measurement and the
// error.
type OracleEntry struct {
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

// OracleReport is the machine-readable result of an oracle run — what
// tipbench -validate writes to results/VALIDATE.json and CI gates on.
type OracleReport struct {
	Models       []tiptop.MachineName `json:"models"`
	Kernels      []string             `json:"kernels"`
	MuxTolerance float64              `json:"mux_tolerance"`
	MuxAbsSlack  float64              `json:"mux_abs_slack"`
	Entries      []OracleEntry        `json:"entries"`
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

// RunOracle executes the conformance matrix: every suite kernel on
// every conformance model.
func RunOracle() (*OracleReport, error) {
	suite := ukernel.ValidationSuite()
	rep := &OracleReport{Models: oracleModels, MuxTolerance: oracleMuxTolerance, MuxAbsSlack: oracleMuxAbsSlack, Pass: true}
	for _, k := range suite {
		rep.Kernels = append(rep.Kernels, k.Name)
	}
	for _, model := range oracleModels {
		for _, k := range suite {
			entries, err := oracleOne(model, k)
			if err != nil {
				return nil, fmt.Errorf("validate: %s on %s: %w", k.Name, model, err)
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
			if math.Abs(e.Measured-e.Expected) > oracleMuxAbsSlack && e.RelError > rep.WorstMuxedRelError {
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

// validationScreen defines a screen whose columns reference exactly the
// given events, so the monitor attaches precisely the validation set.
func validationScreen(events []string) tiptop.ScreenDef {
	s := tiptop.ScreenDef{Name: "validate"}
	for _, ev := range events {
		s.Columns = append(s.Columns, tiptop.ColumnDef{
			Name: ev, Header: ev, Width: 12, Format: "%12.0f", Expr: ev,
			Desc: "per-refresh delta of " + ev,
		})
	}
	return s
}

// oracleCounts executes the kernel to completion on a private VM — the
// ground truth. The live run replays the identical deterministic
// instruction stream, so its totals equal this pre-run; the pre-run
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
// conventions of OracleEntry.RelError.
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

func checkEntry(e *OracleEntry, tolerance, absSlack float64) {
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

// oracleOne runs one kernel on one model through a daemon and its
// store, and returns its slice of the conformance matrix.
func oracleOne(model tiptop.MachineName, vk ukernel.ValidationKernel) ([]OracleEntry, error) {
	sc, err := tiptop.NewScenario(model)
	if err != nil {
		return nil, err
	}
	m := sc.Machine()
	oracle, err := oracleCounts(vk, m)
	if err != nil {
		return nil, err
	}
	// The analytic layer: the §2.4 hand-derived instruction count must
	// match the VM oracle on every model, exactly.
	entries := []OracleEntry{{
		Kernel: vk.Name, Model: string(model), Layer: LayerAnalytic, Event: hpm.EventInstructions,
		Expected: float64(vk.ExpectedInstructions), Measured: float64(oracle.Instructions),
		Exact: true, Supported: true,
	}}
	checkEntry(&entries[0], oracleMuxTolerance, 0)

	// Rotation pressure: does the screen fit the PMU? Per event, a
	// measurement is extrapolated only when rotation is active AND the
	// event costs a slot — the U74's fixed cycle/instret CSRs stay
	// attached and exact even while its two programmable counters
	// rotate.
	infos, err := tiptop.ListEvents(tiptop.Config{}, model)
	if err != nil {
		return nil, err
	}
	info := make(map[string]tiptop.EventInfo, len(infos))
	for _, in := range infos {
		info[in.Name] = in
	}
	events := append([]string(nil), baseEvents...)
	for _, name := range optionalEvents {
		if info[name].Supported["sim"] {
			events = append(events, name)
			continue
		}
		entries = append(entries, OracleEntry{
			Kernel: vk.Name, Model: string(model), Layer: LayerSession, Event: name,
			Supported: false, Pass: true,
			Note: "event not implemented by this machine model; reported unsupported, not zero",
		})
	}
	capacities, err := tiptop.Capacities(model)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ev := range events {
		total += info[ev].SlotCost["sim"]
	}
	rotation := capacities["sim"] > 0 && total > capacities["sim"]
	muxedEvent := func(name string) bool { return rotation && info[name].SlotCost["sim"] > 0 }

	// Price the sampling interval so the run spans ~oracleRefreshTarget
	// refreshes: enough rotations for extrapolation to converge, and
	// the same refresh cadence regardless of kernel length.
	interval := time.Duration(float64(oracle.Cycles) / m.FreqHz * 1e9 / oracleRefreshTarget)
	if interval < 100*time.Nanosecond {
		interval = 100 * time.Nanosecond
	}

	// The live run: attach at t=0 (nothing has executed yet, so the
	// perf "only events after attach" semantics still observe the whole
	// program), then refresh until the kernel exits — the final sample
	// holds the task's exit row, the partial last interval.
	pid, err := sc.StartValidationKernel("validate", vk.Name)
	if err != nil {
		return nil, err
	}
	r, err := monitor(sc, tiptop.Config{
		Interval: interval, Screen: "validate",
		Screens: []tiptop.ScreenDef{validationScreen(events)},
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	sums := make(map[string]uint64, len(events))
	maxSamples := oracleRefreshTarget*3 + 32
	for i := 0; sc.Running(pid); i++ {
		if i == maxSamples {
			return nil, fmt.Errorf("kernel did not finish within %d refreshes", maxSamples)
		}
		sample, err := r.d.Refresh()
		if err != nil {
			return nil, err
		}
		for _, row := range sample.Rows {
			if row.PID != pid {
				continue
			}
			for _, ev := range events {
				sums[ev] += row.Events[ev]
			}
		}
	}
	for _, ev := range events {
		if got, err := sc.TaskTotal(pid, ev); err != nil || got != oracle.Count(ev) {
			return nil, fmt.Errorf("live %s diverged from oracle pre-run: %d vs %d (%v)", ev, got, oracle.Count(ev), err)
		}
	}

	// Layers a/b: raw engine deltas (exact) or mux extrapolation
	// (tolerance band), per event.
	for _, ev := range events {
		muxed := muxedEvent(ev)
		layer := LayerSession
		if muxed {
			layer = LayerMux
		}
		e := OracleEntry{
			Kernel: vk.Name, Model: string(model), Layer: layer, Event: ev,
			Expected: float64(oracle.Count(ev)), Measured: float64(sums[ev]),
			Exact: !muxed, Muxed: muxed, Supported: true,
		}
		checkEntry(&e, oracleMuxTolerance, oracleMuxAbsSlack)
		entries = append(entries, e)
	}

	// Layer c: store round-trip. Closing the daemon seals the buffered
	// tail; restarting it exercises recovery; the query must reproduce
	// the session sums exactly — extrapolated or not, what the monitor
	// measured is what the store must persist.
	if err := r.reopen(); err != nil {
		return nil, err
	}
	st := r.store()
	step := st.LastTime().Seconds()*2 + 1
	queryOne := func(expr string) (float64, error) {
		res, err := st.Querier().QueryExpr(expr, tiptop.QueryOptions{StepSeconds: step})
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
	// Every event the screen counts is stored and queried back: the
	// derived layer's inputs first, then the rest in screen order.
	first := []string{hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses}
	rank := func(ev string) int { return cmp.Or(slices.Index(first, ev)+1, len(first)+1) }
	for _, ev := range slices.SortedStableFunc(slices.Values(events), func(a, b string) int { return rank(a) - rank(b) }) {
		measured, err := queryOne("delta(" + ev + ")")
		if err != nil {
			return nil, err
		}
		e := OracleEntry{
			Kernel: vk.Name, Model: string(model), Layer: LayerStore, Event: ev,
			Expected: float64(sums[ev]), Measured: measured,
			Exact: true, Supported: true,
		}
		checkEntry(&e, oracleMuxTolerance, 0)
		entries = append(entries, e)
	}

	// Layer d: derived expressions queried from the store, against
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
		e := OracleEntry{
			Kernel: vk.Name, Model: string(model), Layer: LayerQuery, Event: d.event,
			Expected: d.expected, Measured: measured,
			Exact: !d.muxed, Muxed: d.muxed, Supported: true,
		}
		checkEntry(&e, 2*oracleMuxTolerance, 0)
		entries = append(entries, e)
	}
	return entries, nil
}

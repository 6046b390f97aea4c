package experiments

import (
	"fmt"
	"time"

	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
	"tiptop/internal/ukernel"
)

// Ablations quantify which simulator mechanisms carry the paper's
// results. They drive the scheduler and the micro-kernel VM directly:
// what they switch off sits below the monitor.

// AblationContention measures the Figure 11 three-copy mcf slowdown with
// the shared-cache contention model enabled and disabled. Without it the
// co-run effect vanishes — demonstrating the fixed-point capacity model
// is the load-bearing mechanism of §3.4.
func AblationContention(cfg Config) (withSharing, withoutSharing float64, err error) {
	cfg = cfg.normalized()
	run := func(disable bool, copies int) (float64, error) {
		k, err := sched.New(machine.XeonW3550(), sched.Options{DisableCacheSharing: disable})
		if err != nil {
			return 0, err
		}
		var first *sched.Task
		for i := 0; i < copies; i++ {
			w := workload.Scaled(workload.MCF(), cfg.Scale)
			t := k.Spawn("u", "mcf", workload.MustInstance(w, cfg.Seed+int64(i)),
				machine.MaskOf(machine.CPUID(i)))
			if i == 0 {
				first = t
			}
		}
		k.Advance(400 * time.Duration(float64(time.Second)*cfg.Scale*50))
		tot := first.Totals()
		if tot.Cycles == 0 {
			return 0, fmt.Errorf("ablation: no cycles")
		}
		return float64(tot.Instructions) / float64(tot.Cycles), nil
	}
	measure := func(disable bool) (float64, error) {
		solo, err := run(disable, 1)
		if err != nil {
			return 0, err
		}
		three, err := run(disable, 3)
		if err != nil {
			return 0, err
		}
		return 100 * (1 - three/solo), nil
	}
	if withSharing, err = measure(false); err != nil {
		return 0, 0, err
	}
	if withoutSharing, err = measure(true); err != nil {
		return 0, 0, err
	}
	return withSharing, withoutSharing, nil
}

// AblationAssistPenalty sweeps the micro-code FP-assist penalty and
// returns the Table 1 slowdown factor at each value. The paper's 87x
// pins the penalty near 264 cycles; the sweep shows the calibration is a
// single interpretable knob, not an overfit.
func AblationAssistPenalty(penalties []int) (map[int]float64, error) {
	out := make(map[int]float64, len(penalties))
	for _, p := range penalties {
		m := machine.XeonW3550()
		m.FPAssistPenalty = p
		ipcOf := func(vals ukernel.FPValues) (float64, error) {
			prog, inputs := ukernel.FPMicroKernel(ukernel.FPModeX87, vals, 50_000)
			vm, err := ukernel.NewVM(prog, m)
			if err != nil {
				return 0, err
			}
			inputs.Apply(vm)
			if _, err := vm.Run(0); err != nil {
				return 0, err
			}
			return vm.IPC(), nil
		}
		finite, err := ipcOf(ukernel.FPFinite)
		if err != nil {
			return nil, err
		}
		slow, err := ipcOf(ukernel.FPNaN)
		if err != nil {
			return nil, err
		}
		out[p] = finite / slow
	}
	return out, nil
}

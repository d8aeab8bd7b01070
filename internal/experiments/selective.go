package experiments

import (
	"context"
	"fmt"

	"smtexplore/internal/isa"
	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/smt"
	"smtexplore/internal/syncprim"
)

// SelectiveHaltResult reports the §3.1 selective-halting methodology
// applied to the LU coarse scheme, whose three phase barriers have very
// different wait durations (the second thread idles through every
// diagonal-tile factorisation).
type SelectiveHaltResult struct {
	// Baseline is the all-spin(+pause) run used for profiling.
	Baseline KernelMetrics
	// Planned is the rerun with halt embedded in the long-duration
	// barriers only.
	Planned KernelMetrics
	// WaitProfile is the measured per-cell wait-cycle profile of the
	// baseline run.
	WaitProfile map[isa.Cell]uint64
	// HaltCells are the barrier cells the plan selected for halting.
	HaltCells []isa.Cell
	// Threshold is the wait-cycle cutoff used.
	Threshold uint64
}

// SelectiveHaltLU runs the two-pass methodology on LU (dimension n):
// first an all-spin profiling pass measuring the time the threads spend
// on every barrier, then a rerun with processor halting embedded only in
// the barriers where the waits are a considerable portion of execution
// time. The passes are inherently sequential (the second consumes the
// first's wait profile), so opt contributes no fan-out here; ctx is
// checked between the passes.
func SelectiveHaltLU(ctx context.Context, opt Options, n int) (SelectiveHaltResult, error) {
	if err := ctx.Err(); err != nil {
		return SelectiveHaltResult{}, err
	}
	// Pass 1: profile with the default spin+pause barriers.
	base, err := lu.New(lu.DefaultConfig(n))
	if err != nil {
		return SelectiveHaltResult{}, err
	}
	progs, err := base.Programs(kernels.TLPCoarse)
	if err != nil {
		return SelectiveHaltResult{}, err
	}
	m := smt.New(KernelMachineConfig())
	m.LoadProgram(kernels.WorkerTid, progs[0])
	m.LoadProgram(kernels.HelperTid, progs[1])
	res, err := m.Run(maxKernelCycles)
	if err != nil {
		return SelectiveHaltResult{}, err
	}
	if !res.Completed {
		return SelectiveHaltResult{}, fmt.Errorf("experiments: selective-halt profiling pass did not complete")
	}
	profile := m.WaitProfile()
	baseline := collectKernelMetrics(base, kernels.TLPCoarse, fmt.Sprintf("N=%d", n), m)
	if err := ctx.Err(); err != nil {
		return SelectiveHaltResult{}, err
	}

	// The paper's criterion: halt where threads "spin for a considerable
	// portion of their total execution time". Use 2% of the profiled
	// runtime as the cutoff.
	threshold := m.Cycle() / 50
	plan := syncprim.PlanFromProfile(profile, threshold, syncprim.SpinPause)
	var haltCells []isa.Cell
	for c, k := range plan {
		if k == syncprim.HaltWait {
			haltCells = append(haltCells, c)
		}
	}

	// Pass 2: rerun with the plan. The kernel is rebuilt identically
	// (same cell allocation order), so the plan's cells line up. The
	// cell is uncached (key ""): the plan's map has no deterministic
	// rendering to key on.
	met, err := opt.runKernel("", func() (Builder, error) {
		cfg := lu.DefaultConfig(n)
		cfg.WaitPlan = plan
		return lu.New(cfg)
	}, kernels.TLPCoarse, KernelMachineConfig(), fmt.Sprintf("N=%d", n))
	if err != nil {
		return SelectiveHaltResult{}, err
	}
	return SelectiveHaltResult{
		Baseline:    baseline,
		Planned:     met,
		WaitProfile: profile,
		HaltCells:   haltCells,
		Threshold:   threshold,
	}, nil
}

// FormatSelectiveHalt renders the study.
func FormatSelectiveHalt(r SelectiveHaltResult) string {
	out := fmt.Sprintf("%s, threshold %d wait cycles\n", Title("selective"), r.Threshold)
	out += fmt.Sprintf("%-28s %12s %12s %10s %10s\n", "pass", "cycles", "spin-uops", "halts", "waits")
	out += fmt.Sprintf("%-28s %12d %12d %10d %10d\n", "all spin+pause (profiling)",
		r.Baseline.Cycles, r.Baseline.SpinUops, r.Baseline.HaltTransitions, len(r.WaitProfile))
	out += fmt.Sprintf("%-28s %12d %12d %10d %10d\n", "selective halt",
		r.Planned.Cycles, r.Planned.SpinUops, r.Planned.HaltTransitions, len(r.HaltCells))
	return out
}

package experiments

import (
	"context"
	"fmt"

	"smtexplore/internal/obs"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/runner"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// StreamWindowCycles is the measurement window for one stream run — the
// simulated analogue of the paper's ~10-second interval; CPI converges
// well within it.
const StreamWindowCycles = 120_000

// Fig1Row is one bar of Figure 1: the average CPI of a stream under one
// TLP×ILP execution mode.
type Fig1Row struct {
	Stream  streams.Kind
	ILP     streams.ILP
	Threads int // 1 or 2 (same stream on both contexts)
	CPI     float64
}

// Fig1Kinds are the streams shown in the paper's Figure 1.
func Fig1Kinds() []streams.Kind {
	return []streams.Kind{
		streams.FAddS, streams.FMulS, streams.FAddMulS,
		streams.IAddS, streams.ILoadS,
	}
}

// MeasureCPI runs one or two copies of the given stream specs and returns
// the per-context CPI over the measurement window (cycles/instructions of
// that context, as the paper computes it).
func MeasureCPI(mcfg smt.Config, specs []streams.Spec, window uint64) ([]float64, error) {
	return measureCPIWith(mcfg, specs, window, nil)
}

// measureCPIWith is MeasureCPI with an optional instrument bundle
// attached to the machine for the duration of the run.
func measureCPIWith(mcfg smt.Config, specs []streams.Spec, window uint64, ins *obs.Instruments) ([]float64, error) {
	if len(specs) == 0 || len(specs) > smt.NumContexts {
		return nil, fmt.Errorf("experiments: %d streams (want 1 or 2)", len(specs))
	}
	m := smt.New(mcfg)
	// Streams typically outlive the measurement window; Close releases
	// their abandoned generators.
	defer m.Close()
	if ins != nil {
		ins.Attach(m)
	}
	for i, sp := range specs {
		sp.Base = streams.DisjointBase(i)
		m.LoadStream(i, streams.Open(sp))
	}
	if _, err := m.Run(window); err != nil {
		return nil, err
	}
	c := m.Counters()
	out := make([]float64, len(specs))
	for i := range specs {
		instr := c.Get(perfmon.InstrRetired, i)
		if instr == 0 {
			return nil, fmt.Errorf("experiments: context %d retired nothing", i)
		}
		out[i] = float64(c.Get(perfmon.Cycles, i)) / float64(instr)
	}
	return out, nil
}

// Fig1 measures the Figure 1 matrix: for each stream and ILP degree, the
// single-threaded CPI and the per-thread CPI when two copies co-execute.
// Cells fan out over opt.Workers simulations; rows come back in the
// paper's presentation order regardless of completion order.
func Fig1(ctx context.Context, opt Options, mcfg smt.Config, kinds []streams.Kind) ([]Fig1Row, error) {
	grid := Fig1Grid(kinds, streams.Levels(), []int{1, 2})
	cpi, err := runner.Map(ctx, opt.Workers, grid, func(_ context.Context, specs []streams.Spec) ([]float64, error) {
		cpi, err := opt.measureCPI(mcfg, specs, StreamWindowCycles)
		if err != nil {
			word := "solo"
			if len(specs) == 2 {
				word = "duo"
			}
			return nil, fmt.Errorf("fig1 %v/%v %s: %w", specs[0].Kind, specs[0].ILP, word, err)
		}
		return cpi, nil
	})
	if err != nil {
		return nil, err
	}
	return Fig1Rows(grid, cpi), nil
}

// Fig2Cell is one point of Figure 2: the slowdown factor of Subject when
// co-executed with Partner at the given (shared) ILP level, relative to
// Subject running alone.
type Fig2Cell struct {
	Subject  streams.Kind
	Partner  streams.Kind
	ILP      streams.ILP
	SoloCPI  float64
	CoCPI    float64
	Slowdown float64 // CoCPI/SoloCPI - 1, the paper's "slowdown factor"
}

// Fig2 measures the pairwise co-execution matrix over the given subject
// and partner stream sets (Figure 2a: FP×FP; 2b: int×int; 2c: int×fp
// arithmetic) on the NewFig2Grid cells: the solo baselines fan out
// first, then the pairwise duos.
func Fig2(ctx context.Context, opt Options, mcfg smt.Config, subjects, partners []streams.Kind) ([]Fig2Cell, error) {
	g := NewFig2Grid(subjects, partners, streams.Levels())
	measure := func(_ context.Context, specs []streams.Spec) ([]float64, error) {
		cpi, err := opt.measureCPI(mcfg, specs, StreamWindowCycles)
		switch {
		case err != nil && len(specs) == 1:
			return nil, fmt.Errorf("fig2 solo %v/%v: %w", specs[0].Kind, specs[0].ILP, err)
		case err != nil:
			return nil, fmt.Errorf("fig2 %v+%v/%v: %w", specs[0].Kind, specs[1].Kind, specs[0].ILP, err)
		}
		return cpi, nil
	}
	solos, err := runner.Map(ctx, opt.Workers, g.Cells[:g.Solos], measure)
	if err != nil {
		return nil, err
	}
	duos, err := runner.Map(ctx, opt.Workers, g.Cells[g.Solos:], measure)
	if err != nil {
		return nil, err
	}
	return g.Matrix(append(solos, duos...)), nil
}

// Fig2a/Fig2b/Fig2c run the three panels of Figure 2.
func Fig2a(ctx context.Context, opt Options, mcfg smt.Config) ([]Fig2Cell, error) {
	return Fig2(ctx, opt, mcfg, streams.FPKinds(), streams.FPKinds())
}
func Fig2b(ctx context.Context, opt Options, mcfg smt.Config) ([]Fig2Cell, error) {
	return Fig2(ctx, opt, mcfg, streams.IntKinds(), streams.IntKinds())
}
func Fig2c(ctx context.Context, opt Options, mcfg smt.Config) ([]Fig2Cell, error) {
	return Fig2(ctx, opt, mcfg, streams.FPArith(), streams.IntArith())
}

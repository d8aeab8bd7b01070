package experiments

import (
	"context"

	"smtexplore/internal/kernels"
	"smtexplore/internal/runner"
)

// MMSizes are the scaled matrix dimensions standing in for the paper's
// 1024², 2048² and 4096² (§6 of DESIGN.md: each size class keeps its
// working-set:L2 regime — below, around, and far above capacity).
func MMSizes() []int { return []int{32, 64, 128} }

// LUSizes are the scaled LU dimensions.
func LUSizes() []int { return []int{32, 64, 128} }

// kernelFigure runs the KernelGrid of one kernel figure over every mode
// the canonical instance implements. Each cell is NamedKernelCell, so a
// figure caches under exactly KernelCellKey and shares every result with
// smtd and the studies.
func kernelFigure(ctx context.Context, opt Options, kernel string, sizes []int) ([]KernelMetrics, error) {
	grid, err := KernelGrid(kernel, sizes, nil)
	if err != nil {
		return nil, err
	}
	return runner.Map(ctx, opt.Workers, grid, func(_ context.Context, p KernelPoint) (KernelMetrics, error) {
		return NamedKernelCell(opt, kernel, p.Size, p.Mode)
	})
}

// Fig3MM runs the Figure 3 sweep: five execution modes across the three
// matrix sizes, collecting the four panels (time, L2 misses, resource
// stalls, µops).
func Fig3MM(ctx context.Context, opt Options, sizes []int) ([]KernelMetrics, error) {
	return kernelFigure(ctx, opt, "mm", sizes)
}

// Fig4LU runs the Figure 4 sweep: serial, tlp-coarse and tlp-pfetch across
// the three matrix sizes.
func Fig4LU(ctx context.Context, opt Options, sizes []int) ([]KernelMetrics, error) {
	return kernelFigure(ctx, opt, "lu", sizes)
}

// Fig5CG runs the CG panels of Figure 5 (single Class-A-like instance).
func Fig5CG(ctx context.Context, opt Options) ([]KernelMetrics, error) {
	return kernelFigure(ctx, opt, "cg", nil)
}

// Fig5BT runs the BT panels of Figure 5.
func Fig5BT(ctx context.Context, opt Options) ([]KernelMetrics, error) {
	return kernelFigure(ctx, opt, "bt", nil)
}

// SerialOf extracts the serial baseline with the given label from a
// metrics list.
func SerialOf(ms []KernelMetrics, label string) (KernelMetrics, bool) {
	for _, m := range ms {
		if m.Mode == kernels.Serial && m.Label == label {
			return m, true
		}
	}
	return KernelMetrics{}, false
}

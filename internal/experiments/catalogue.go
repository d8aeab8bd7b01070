package experiments

import (
	"context"
	"fmt"

	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// experiment is one named result of the paper's evaluation: a figure,
// Table 1 or an ablation study. The catalogue is the one place a named
// result is declared; the CLIs, smtd's harness cells and the study
// engine's harness sweeps all reach it by name through Render.
type experiment struct {
	// name is the catalogue key ("fig1", "fig3", "table1", "sync", …),
	// which is also the smtd harness-cell and study harness-sweep name.
	name string
	// title heads the rendered output.
	title string
	// run simulates the result and formats it under title.
	run func(ctx context.Context, opt Options, p Params) (string, error)
	// bare drops the trailing blank line the CLIs print after every
	// other result (Table 1 is printed last and has none).
	bare bool
}

// Params sizes a named result; the zero value is the paper's instance.
type Params struct {
	// Sizes overrides the matrix dimensions of fig3 (MM) and fig4 (LU).
	Sizes []int
	// AllKinds runs fig1 over every stream kind, not just the paper's
	// selection.
	AllKinds bool
}

// catalogue lists the named results in the paper's order.
func catalogue() []experiment {
	return []experiment{
		{name: "fig1", title: "Figure 1 — average CPI per stream under TLP×ILP modes", run: renderFig1},
		fig2("fig2a", "Figure 2(a) — floating-point streams", Fig2a),
		fig2("fig2b", "Figure 2(b) — integer streams", Fig2b),
		fig2("fig2c", "Figure 2(c) — mixed fp×int arithmetic", Fig2c),
		kernelFig("fig3", "Figure 3 — Matrix Multiplication", "mm", MMSizes()),
		kernelFig("fig4", "Figure 4 — LU decomposition", "lu", LUSizes()),
		kernelFig("fig5cg", "Figure 5 — NAS CG", "cg", nil),
		kernelFig("fig5bt", "Figure 5 — NAS BT", "bt", nil),
		{name: "table1", title: "Table 1 — processor subunit utilisation per instrumented thread", run: renderTable1, bare: true},
		ablation("sync", "Ablation §3.1 — wait primitive of the MM prefetcher", AblateSync),
		ablation("span", "Ablation §3.2 — precomputation span of the MM prefetcher", AblateSpan),
		ablation("partition", "Ablation §5.3 — static partitioning vs fully shared buffers", AblatePartition),
		{name: "selective", title: "Selective halting (§3.1) on LU tlp-coarse", run: renderSelective},
	}
}

func lookup(name string) (experiment, bool) {
	for _, e := range catalogue() {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Title is the heading of a named result ("" for an unknown name).
func Title(name string) string {
	e, _ := lookup(name)
	return e.title
}

// CheckHarness reports whether name is in the catalogue — the check an
// smtd harness cell and a study harness sweep are validated with.
func CheckHarness(name string) error {
	if _, ok := lookup(name); !ok {
		return fmt.Errorf("unknown harness %q", name)
	}
	return nil
}

// Render runs a named result and returns exactly the bytes its CLI
// prints, including the trailing blank line where the CLI prints one.
func Render(ctx context.Context, opt Options, name string, p Params) (string, error) {
	e, ok := lookup(name)
	if !ok {
		return "", CheckHarness(name)
	}
	out, err := e.run(ctx, opt, p)
	if err != nil {
		return "", err
	}
	if !e.bare {
		out += "\n"
	}
	return out, nil
}

func renderFig1(ctx context.Context, opt Options, p Params) (string, error) {
	kinds := Fig1Kinds()
	if p.AllKinds {
		kinds = streams.All()
	}
	rows, err := Fig1(ctx, opt, StreamMachineConfig(), kinds)
	if err != nil {
		return "", err
	}
	return FormatFig1(rows), nil
}

func fig2(name, title string, panel func(context.Context, Options, smt.Config) ([]Fig2Cell, error)) experiment {
	return experiment{name: name, title: title, run: func(ctx context.Context, opt Options, _ Params) (string, error) {
		cells, err := panel(ctx, opt, StreamMachineConfig())
		if err != nil {
			return "", err
		}
		return FormatFig2(title, cells), nil
	}}
}

// kernelFig declares a Figure 3/4/5 panel group. sizes are the default
// problem sizes, which Params.Sizes overrides; nil marks a single-instance
// figure (CG, BT) that runs the kernel's default instance.
func kernelFig(name, title, kernel string, sizes []int) experiment {
	return experiment{name: name, title: title, run: func(ctx context.Context, opt Options, p Params) (string, error) {
		ns := []int{0}
		if sizes != nil {
			ns = sizes
			if p.Sizes != nil {
				ns = p.Sizes
			}
		}
		ms, err := kernelFigure(ctx, opt, kernel, ns)
		if err != nil {
			return "", err
		}
		return FormatKernelFigure(title, ms), nil
	}}
}

func renderTable1(ctx context.Context, opt Options, _ Params) (string, error) {
	cols, err := Table1(ctx, opt)
	if err != nil {
		return "", err
	}
	return FormatTable1(cols), nil
}

func ablation(name, title string, study func(context.Context, Options) ([]AblationRow, error)) experiment {
	return experiment{name: name, title: title, run: func(ctx context.Context, opt Options, _ Params) (string, error) {
		rows, err := study(ctx, opt)
		if err != nil {
			return "", err
		}
		return FormatAblation(title, rows), nil
	}}
}

func renderSelective(ctx context.Context, opt Options, _ Params) (string, error) {
	r, err := SelectiveHaltLU(ctx, opt, 64)
	if err != nil {
		return "", err
	}
	return FormatSelectiveHalt(r), nil
}

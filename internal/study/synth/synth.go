// Package synth turns a compiled plan plus its cell results into the
// study's deliverables: result tables rendered by the same formatters
// the legacy CLIs use (so a sweep that mirrors a paper grid emits
// byte-identical text), and a self-contained Markdown report with the
// plan accounting, deltas vs. the paper's published numbers, and a
// limitations/verification appendix listing every skipped or failed
// cell.
package synth

import (
	"fmt"
	"strings"

	"smtexplore/internal/experiments"
	"smtexplore/internal/report"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/budget"
	"smtexplore/internal/study/compile"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
)

// Table is one synthesized result table.
type Table struct {
	// Name is the sweep name (and the table's file stem).
	Name string
	// Text is the rendered table. For sweeps that mirror a legacy CLI
	// grid this is byte-identical to that CLI's stdout, including the
	// trailing blank line the streams/kernels commands print.
	Text string
}

// done reports whether a plan-aligned result slot holds a completed
// cell (skipped cells are zero-valued; failed ones carry their state).
func done(results []service.CellResult, idx int) (service.CellResult, bool) {
	if idx < 0 || idx >= len(results) {
		return service.CellResult{}, false
	}
	r := results[idx]
	return r, r.State == service.CellDone
}

// Tables renders one table per sweep from the plan-aligned results.
// Missing values (skipped or failed cells) render as zeros or absent
// rows; the report's appendix is where they are called out.
func Tables(p *compile.Plan, results []service.CellResult) ([]Table, error) {
	out := make([]Table, 0, len(p.Tables))
	for _, t := range p.Tables {
		var text string
		switch t.Sweep.EffectiveTable() {
		case spec.TableFig1:
			text = experiments.FormatFig1(fig1Rows(t, results)) + "\n"
		case spec.TableFig2:
			text = fig2Table(t, results)
		case spec.TableKernel:
			text = kernelTable(t, results)
		case spec.TableText:
			text = textTable(t, results)
		default:
			return nil, fmt.Errorf("synth: sweep %q: unknown table style %q", t.Sweep.Name, t.Sweep.EffectiveTable())
		}
		out = append(out, Table{Name: t.Sweep.Name, Text: text})
	}
	return out, nil
}

// cpis reads the table's per-context CPIs, index-aligned with its grid
// (nil for a cell that did not complete).
func cpis(t compile.TableNode, results []service.CellResult) [][]float64 {
	out := make([][]float64, len(t.Cells))
	for i, idx := range t.Cells {
		if r, ok := done(results, idx); ok {
			out[i] = r.CPI
		}
	}
	return out
}

// fig1Rows fills the sweep's Fig1Grid rows from its cells' results.
func fig1Rows(t compile.TableNode, results []service.CellResult) []experiments.Fig1Row {
	a := t.Sweep.Axes()
	return experiments.Fig1Rows(experiments.Fig1Grid(a.Streams, a.ILP, a.Threads), cpis(t, results))
}

// fig2Cells fills the sweep's Fig2Grid matrix from its cells' results.
func fig2Cells(t compile.TableNode, results []service.CellResult) []experiments.Fig2Cell {
	a := t.Sweep.Axes()
	return experiments.NewFig2Grid(a.Streams, a.Partners, a.ILP).Matrix(cpis(t, results))
}

func fig2Table(t compile.TableNode, results []service.CellResult) string {
	title := t.Sweep.Title
	if title == "" {
		title = "Co-execution matrix — " + t.Sweep.Name
	}
	return experiments.FormatFig2(title, fig2Cells(t, results)) + "\n"
}

// kernelMetrics collects the kernel sweep's metric rows in grid order.
// Rows whose cell did not complete are absent — a zero-valued row would
// corrupt the vs-serial column.
func kernelMetrics(t compile.TableNode, results []service.CellResult) []experiments.KernelMetrics {
	var ms []experiments.KernelMetrics
	for _, idx := range t.Cells {
		if r, ok := done(results, idx); ok && r.Kernel != nil {
			ms = append(ms, *r.Kernel)
		}
	}
	return ms
}

func kernelTable(t compile.TableNode, results []service.CellResult) string {
	title := t.Sweep.Title
	if title == "" {
		title = "Kernel sweep — " + t.Sweep.Name
	}
	return experiments.FormatKernelFigure(title, kernelMetrics(t, results)) + "\n"
}

// textTable passes harness output through verbatim, in sweep order.
func textTable(t compile.TableNode, results []service.CellResult) string {
	var b strings.Builder
	for _, idx := range t.Cells {
		if r, ok := done(results, idx); ok {
			b.WriteString(r.Text)
		}
	}
	return b.String()
}

// CollectData assembles whatever paper-claim inputs the study's sweeps
// reconstructed, for report.Evaluate. Claims whose inputs this study
// did not sweep evaluate as skipped — partial studies get partial
// verdict tables, never false failures.
func CollectData(p *compile.Plan, results []service.CellResult) *report.Data {
	d := &report.Data{}
	for _, t := range p.Tables {
		switch t.Sweep.EffectiveTable() {
		case spec.TableFig1:
			d.Fig1 = append(d.Fig1, fig1Rows(t, results)...)
		case spec.TableFig2:
			cells := fig2Cells(t, results)
			// Route by stream class: an all-FP matrix feeds the Figure
			// 2(a) claims, an all-integer one 2(b).
			fp, in := classify(t.Sweep.Axes())
			switch {
			case fp && !in:
				d.Fig2a = append(d.Fig2a, cells...)
			case in && !fp:
				d.Fig2b = append(d.Fig2b, cells...)
			}
		case spec.TableKernel:
			ms := kernelMetrics(t, results)
			sizes := t.Sweep.Sizes
			label := ""
			if len(sizes) > 0 {
				label = fmt.Sprintf("N=%d", sizes[len(sizes)-1])
			}
			switch t.Sweep.Kernels[0] {
			case "mm":
				d.MM = append(d.MM, ms...)
				d.MMLabel = label
			case "lu":
				d.LU = append(d.LU, ms...)
				d.LULabel = label
			case "cg":
				d.CG = append(d.CG, ms...)
			case "bt":
				d.BT = append(d.BT, ms...)
			}
		}
	}
	return d
}

// classify reports whether every swept stream is FP and whether every
// one is integer.
func classify(a spec.Axes) (allFP, allInt bool) {
	allFP, allInt = true, true
	for _, k := range append(append([]streams.Kind{}, a.Streams...), a.Partners...) {
		allFP = allFP && k.IsFP()
		allInt = allInt && !k.IsFP()
	}
	return allFP, allInt
}

// Input is everything the report needs.
type Input struct {
	Spec     *spec.Spec
	Plan     *compile.Plan
	Decision budget.Decision
	Outcome  *execute.Outcome
	// Results is plan-aligned (skipped cells zero-valued).
	Results []service.CellResult
	Tables  []Table
}

// Report renders the self-contained Markdown report. It is
// deliberately timestamp-free: the same study over the same store
// produces byte-identical reports, which is what makes report diffs
// reviewable.
func Report(in Input) string {
	var b strings.Builder
	s := in.Spec
	title := s.Title
	if title == "" {
		title = s.Name
	}
	fmt.Fprintf(&b, "# Study report — %s\n\n", title)
	if s.Description != "" {
		fmt.Fprintf(&b, "%s\n\n", strings.TrimSpace(s.Description))
	}
	fmt.Fprintf(&b, "- study: `%s` (spec sha256 `%s`)\n", s.Name, s.Hash()[:12])
	fmt.Fprintf(&b, "- backend: %s\n", in.Outcome.Backend)
	if s.Priority != 0 {
		fmt.Fprintf(&b, "- priority: %d\n", s.Priority)
	}
	if s.Deadline != "" {
		fmt.Fprintf(&b, "- deadline: %s\n", s.Deadline)
	}
	switch {
	case s.Budget.Cycles > 0 && s.Budget.Cells > 0:
		fmt.Fprintf(&b, "- budget: %d cycles, %d cold cells\n", s.Budget.Cycles, s.Budget.Cells)
	case s.Budget.Cycles > 0:
		fmt.Fprintf(&b, "- budget: %d cycles\n", s.Budget.Cycles)
	case s.Budget.Cells > 0:
		fmt.Fprintf(&b, "- budget: %d cold cells\n", s.Budget.Cells)
	default:
		fmt.Fprintf(&b, "- budget: unlimited\n")
	}

	fmt.Fprintf(&b, "\n## Plan\n\n")
	fmt.Fprintf(&b, "| sweep | kind | table | cells |\n|---|---|---|---|\n")
	for _, t := range in.Plan.Tables {
		fmt.Fprintf(&b, "| %s | %s | %s | %d |\n",
			t.Sweep.Name, t.Sweep.Kind, t.Sweep.EffectiveTable(), len(t.Cells))
	}
	fmt.Fprintf(&b, "\n%d grid points compiled to %d unique cells (%d deduplicated); %d warm in the store, %d cold admitted (~%d estimated cycles), %d skipped by the budget.\n",
		in.Plan.Requested, len(in.Plan.Cells), in.Plan.Requested-len(in.Plan.Cells),
		len(in.Decision.Warm), in.Decision.ColdCells, in.Decision.EstimatedCycles,
		len(in.Decision.Skipped))

	fmt.Fprintf(&b, "\n## Results\n")
	for _, t := range in.Tables {
		fmt.Fprintf(&b, "\n### %s\n\n```text\n%s```\n", t.Name, ensureNL(t.Text))
	}

	if s.Claims {
		fmt.Fprintf(&b, "\n## Deltas vs. the paper\n\n")
		d := CollectData(in.Plan, in.Results)
		fmt.Fprintf(&b, "```text\n%s```\n", ensureNL(report.Format(report.Evaluate(d))))
	}

	fmt.Fprintf(&b, "\n## Limitations and verification\n\n")
	if len(in.Decision.Skipped) == 0 {
		fmt.Fprintf(&b, "- skipped cells: none — the budget admitted the whole plan.\n")
	} else {
		fmt.Fprintf(&b, "- skipped cells (%d):\n", len(in.Decision.Skipped))
		for _, sk := range in.Decision.Skipped {
			fmt.Fprintf(&b, "  - `%s`: %s\n", sk.Label, sk.Reason)
		}
	}
	failed := 0
	for _, r := range in.Results {
		if r.State == service.CellFailed || r.State == service.CellCancelled {
			failed++
		}
	}
	if failed == 0 {
		fmt.Fprintf(&b, "- failed cells: none.\n")
	} else {
		fmt.Fprintf(&b, "- failed cells (%d):\n", failed)
		for _, r := range in.Results {
			if r.State == service.CellFailed || r.State == service.CellCancelled {
				fmt.Fprintf(&b, "  - `%s` (%s): %s\n", r.Label, r.State, firstLine(r.Error))
			}
		}
	}
	if in.Outcome.Simulated >= 0 {
		fmt.Fprintf(&b, "- cold simulations this run: %d (warm cells were served from the store).\n", in.Outcome.Simulated)
	} else {
		fmt.Fprintf(&b, "- cold simulations this run: unknown (no store visibility from this backend).\n")
	}
	for _, n := range in.Outcome.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	fmt.Fprintf(&b, "- budget costs are admission estimates (stream cells are exact windows; kernel/harness cells use coarse per-cell guesses), not a cycle meter.\n")
	fmt.Fprintf(&b, "- tables whose sweep mirrors a paper grid are rendered by the legacy formatters and are byte-identical to the corresponding CLI (enforced for Fig-1/Table-1 by the study-smoke CI job).\n")
	return b.String()
}

func ensureNL(s string) string {
	if s == "" || strings.HasSuffix(s, "\n") {
		return s
	}
	return s + "\n"
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

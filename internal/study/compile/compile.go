// Package compile lowers a validated study spec into a deduplicated DAG
// of content-keyed simulation cells plus the table nodes that consume
// them.
//
// Each cell carries the exact content key the legacy harnesses cache
// and store results under (experiments.StreamCellKey/KernelCellKey), so
// a study deduplicates in three directions at once: within itself (the
// fig2 diagonal reuses fig1 duos), against previous studies sharing a
// store, and against the CLI tools and daemon fleet writing to the same
// store. Harness cells have no single-unit key — their inner cells are
// the keyed units — so they compile with an empty Key and a coarse cost
// estimate.
package compile

import (
	"fmt"

	"smtexplore/internal/experiments"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/spec"
)

// Cost estimates for admission, in simulated cycles per cold cell.
// Stream cells are exact (a measurement runs its window and stops);
// kernel and harness cells run to completion, so these are deliberately
// coarse upper-end guesses a sweep can override with CellCost.
const (
	// DefaultKernelCost approximates one kernel cell (mm/lu N≤128, the
	// cg/bt defaults all finish well inside this).
	DefaultKernelCost = 2_000_000
	// DefaultHarnessCost approximates one whole-figure harness cell.
	DefaultHarnessCost = 10_000_000
)

// CellNode is one simulation unit of the plan.
type CellNode struct {
	// Key is the content key shared with the runner cache and the disk
	// store; empty for harness cells (their inner cells carry the keys).
	Key string
	// Spec is the service-shaped cell, executable by any backend.
	Spec service.CellSpec
	// Cost is the admission estimate in simulated cycles, charged only
	// when the cell is cold.
	Cost uint64
}

// TableNode lists the plan cell indices of one sweep's table in the
// order of its experiments grid (Fig1Grid, Fig2Grid.Cells, KernelGrid,
// or the sweep's harness list), which is the order synth fills the
// grid's rows in.
type TableNode struct {
	Sweep spec.Sweep
	Cells []int
}

// Plan is the compiled study: the deduplicated cell list in submission
// order and one table node per sweep.
type Plan struct {
	Spec   *spec.Spec
	Cells  []CellNode
	Tables []TableNode
	// Requested counts grid points before deduplication (the fig2
	// diagonal re-requesting fig1 duos, repeated harnesses, …);
	// Requested - len(Cells) is the work dedupe saved.
	Requested int
}

// Labels returns the display labels of the plan's cells, index-aligned.
func (p *Plan) Labels() []string {
	out := make([]string, len(p.Cells))
	for i, c := range p.Cells {
		out[i] = c.Spec.Label()
	}
	return out
}

// builder accumulates deduplicated cells.
type builder struct {
	plan  *Plan
	index map[string]int // dedupe key → cell index
}

// add registers a cell under its dedupe key and returns its index.
func (b *builder) add(dedupe string, node CellNode) int {
	b.plan.Requested++
	if i, ok := b.index[dedupe]; ok {
		return i
	}
	i := len(b.plan.Cells)
	b.index[dedupe] = i
	b.plan.Cells = append(b.plan.Cells, node)
	return i
}

// Compile lowers the spec. The spec must already be valid (Parse
// validates); compile re-checks only what it alone can know — kernel
// mode support.
func Compile(s *spec.Spec) (*Plan, error) {
	b := &builder{plan: &Plan{Spec: s}, index: map[string]int{}}
	for _, sw := range s.Sweeps {
		var (
			table TableNode
			err   error
		)
		a := sw.Axes()
		switch sw.EffectiveTable() {
		case spec.TableFig1:
			table = streamCells(b, sw, experiments.Fig1Grid(a.Streams, a.ILP, a.Threads))
		case spec.TableFig2:
			table = streamCells(b, sw, experiments.NewFig2Grid(a.Streams, a.Partners, a.ILP).Cells)
		case spec.TableKernel:
			table, err = compileKernel(b, sw, a)
		case spec.TableText:
			table = compileText(b, sw)
		default:
			err = fmt.Errorf("unknown table style %q", sw.EffectiveTable())
		}
		if err != nil {
			return nil, fmt.Errorf("compile: sweep %q: %w", sw.Name, err)
		}
		b.plan.Tables = append(b.plan.Tables, table)
	}
	return b.plan, nil
}

// window is the sweep's effective measurement window.
func window(sw spec.Sweep) uint64 {
	if sw.Window > 0 {
		return sw.Window
	}
	return experiments.StreamWindowCycles
}

// cost is the sweep's effective per-cold-cell estimate.
func cost(sw spec.Sweep, def uint64) uint64 {
	if sw.CellCost > 0 {
		return sw.CellCost
	}
	return def
}

// streamCells compiles a stream grid's cells into the table, in grid
// order.
func streamCells(b *builder, sw spec.Sweep, grid [][]streams.Spec) TableNode {
	t := TableNode{Sweep: sw}
	w := window(sw)
	for _, specs := range grid {
		cellStreams := make([]service.StreamSpec, len(specs))
		for i, sp := range specs {
			cellStreams[i] = service.StreamSpec{Kind: sp.Kind.String(), ILP: spec.ILPName(sp.ILP)}
		}
		key := experiments.StreamCellKey(experiments.StreamMachineConfig(), specs, w)
		t.Cells = append(t.Cells, b.add(key, CellNode{
			Key:  key,
			Spec: service.CellSpec{Type: service.TypeStream, Streams: cellStreams, Window: w},
			Cost: cost(sw, w),
		}))
	}
	return t
}

// compileKernel compiles one kernel's KernelGrid (sizes outer, the
// kernel's own mode order inner when the spec does not pin modes).
func compileKernel(b *builder, sw spec.Sweep, a spec.Axes) (TableNode, error) {
	t := TableNode{Sweep: sw}
	kernel := sw.Kernels[0]
	grid, err := experiments.KernelGrid(kernel, a.Sizes, a.Modes)
	if err != nil {
		return t, err
	}
	for _, p := range grid {
		key, err := experiments.KernelCellKey(kernel, p.Size, p.Mode)
		if err != nil {
			return t, err
		}
		t.Cells = append(t.Cells, b.add(key, CellNode{
			Key: key,
			Spec: service.CellSpec{
				Type: service.TypeKernel, Kernel: kernel,
				Mode: p.Mode.String(), Size: p.Size,
			},
			Cost: cost(sw, DefaultKernelCost),
		}))
	}
	return t, nil
}

// compileText compiles whole-harness cells (spec validated the names
// against the experiments catalogue).
func compileText(b *builder, sw spec.Sweep) TableNode {
	t := TableNode{Sweep: sw}
	for _, h := range sw.Harnesses {
		t.Cells = append(t.Cells, b.add("harness|"+h, CellNode{
			Spec: service.CellSpec{Type: service.TypeHarness, Harness: h},
			Cost: cost(sw, DefaultHarnessCost),
		}))
	}
	return t
}

package experiments

import (
	"slices"

	"smtexplore/internal/kernels"
	"smtexplore/internal/streams"
)

// The grids below are the one enumeration of each table style's cells.
// The figure harnesses fan them out over runner.Map; the study engine
// compiles a sweep's cells from the same grid and fills the same rows
// from the results, so the two agree on cell keys and row order by
// construction.

// Fig1Grid enumerates the Figure 1 cells in presentation order: for each
// kind, each ILP degree and each thread count, that many copies of the
// stream co-executing.
func Fig1Grid(kinds []streams.Kind, ilps []streams.ILP, threads []int) [][]streams.Spec {
	var grid [][]streams.Spec
	for _, k := range kinds {
		for _, ilp := range ilps {
			for _, n := range threads {
				specs := make([]streams.Spec, n)
				for i := range specs {
					specs[i] = streams.Spec{Kind: k, ILP: ilp}
				}
				grid = append(grid, specs)
			}
		}
	}
	return grid
}

// Fig1Rows assembles one Figure 1 row per grid cell from its per-context
// CPIs (index-aligned with grid). A row's CPI is the contexts' average;
// a cell without one CPI per context (not run) reads as zero.
func Fig1Rows(grid [][]streams.Spec, cpi [][]float64) []Fig1Row {
	rows := make([]Fig1Row, len(grid))
	for i, specs := range grid {
		n := len(specs)
		rows[i] = Fig1Row{Stream: specs[0].Kind, ILP: specs[0].ILP, Threads: n}
		if len(cpi[i]) == n {
			sum := 0.0
			for _, v := range cpi[i] {
				sum += v
			}
			rows[i].CPI = sum / float64(n)
		}
	}
	return rows
}

// Fig2Grid is the cell grid of one Figure 2 panel.
type Fig2Grid struct {
	// Cells are the stream cells in fan-out order: first the solo
	// baselines, ILP-major over the subject ∪ partner set (they are the
	// divisors of every matrix entry), then the ordered subject × partner
	// duos, ILP-major. Duos are ordered pairs: the simulated core is not
	// exactly symmetric in its context index, so (a,b) and (b,a) are
	// distinct simulations.
	Cells [][]streams.Spec
	// Solos is the number of leading solo baselines in Cells.
	Solos int
}

// NewFig2Grid enumerates the Figure 2 grid over the given subjects,
// partners and ILP degrees.
func NewFig2Grid(subjects, partners []streams.Kind, ilps []streams.ILP) Fig2Grid {
	var union []streams.Kind
	for _, k := range append(append([]streams.Kind{}, subjects...), partners...) {
		if !slices.Contains(union, k) {
			union = append(union, k)
		}
	}
	var g Fig2Grid
	for _, ilp := range ilps {
		for _, k := range union {
			g.Cells = append(g.Cells, []streams.Spec{{Kind: k, ILP: ilp}})
		}
	}
	g.Solos = len(g.Cells)
	for _, ilp := range ilps {
		for _, s := range subjects {
			for _, p := range partners {
				g.Cells = append(g.Cells, []streams.Spec{{Kind: s, ILP: ilp}, {Kind: p, ILP: ilp}})
			}
		}
	}
	return g
}

// Matrix assembles the panel's matrix entries, one per duo, from the
// cells' per-context CPIs (index-aligned with Cells). The subject runs
// on context 0; an entry whose solo or duo did not run reads as zero.
func (g Fig2Grid) Matrix(cpi [][]float64) []Fig2Cell {
	first := func(i int) float64 {
		if len(cpi[i]) == 0 {
			return 0
		}
		return cpi[i][0]
	}
	solo := map[streams.Spec]float64{}
	for i, specs := range g.Cells[:g.Solos] {
		solo[specs[0]] = first(i)
	}
	out := make([]Fig2Cell, 0, len(g.Cells)-g.Solos)
	for i := g.Solos; i < len(g.Cells); i++ {
		subj, part := g.Cells[i][0], g.Cells[i][1]
		c := Fig2Cell{Subject: subj.Kind, Partner: part.Kind, ILP: subj.ILP, SoloCPI: solo[subj], CoCPI: first(i)}
		if c.SoloCPI > 0 {
			c.Slowdown = c.CoCPI/c.SoloCPI - 1
		}
		out = append(out, c)
	}
	return out
}

// KernelPoint is one (size, mode) cell of a Figure 3/4/5 sweep.
type KernelPoint struct {
	Size int
	Mode kernels.Mode
}

// KernelGrid enumerates a kernel figure's cells: sizes outer and, per
// size, the given modes or — when none are given — every mode the
// canonical instance implements, in its presentation order. No sizes
// means the instance default (size 0) of cg and bt.
func KernelGrid(kernel string, sizes []int, modes []kernels.Mode) ([]KernelPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{0}
	}
	var grid []KernelPoint
	for _, n := range sizes {
		ms := modes
		if len(ms) == 0 {
			var err error
			if ms, err = KernelModes(kernel, n); err != nil {
				return nil, err
			}
		}
		for _, m := range ms {
			grid = append(grid, KernelPoint{n, m})
		}
	}
	return grid, nil
}

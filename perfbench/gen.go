package main

import (
	"fmt"
	"math/rand/v2"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
)

// Every workload's inputs come from its seed alone: the same seed gives
// the same cells and jobs in the same order, and the program sees only
// these generated inputs.

// newRand derives an independent generator for one input stream of a
// workload, so adding draws to one stream never shifts another.
func newRand(seed int64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037 // FNV-1a over the stream name
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(uint64(seed), h))
}

// streamCell is one stream measurement: one stream, or two co-executed
// ones, over a window of simulated cycles.
type streamCell struct {
	Specs  []streams.Spec
	Window uint64
}

func (c streamCell) label() string { return experiments.StreamCellLabel(c.Specs, c.Window) }

// cellSpec is the same cell as a service request.
func (c streamCell) cellSpec() service.CellSpec {
	ss := make([]service.StreamSpec, len(c.Specs))
	for i, s := range c.Specs {
		ss[i] = service.StreamSpec{Kind: s.Kind.String(), ILP: s.ILP.String()}
	}
	return service.CellSpec{Type: service.TypeStream, Streams: ss, Window: c.Window}
}

// kernelCell is one canonical (kernel, size, mode) kernel run.
type kernelCell struct {
	Kernel string
	Size   int
	Mode   kernels.Mode
}

func (c kernelCell) label() string { return fmt.Sprintf("%s/%d/%v", c.Kernel, c.Size, c.Mode) }

func (c kernelCell) cellSpec() service.CellSpec {
	return service.CellSpec{Type: service.TypeKernel, Kernel: c.Kernel, Size: c.Size, Mode: c.Mode.String()}
}

// fig1Cells are the 30 Figure 1 cells in the figure's row order: each
// Figure 1 stream at each ILP degree, alone and as a same-stream duo, over
// the figure's 120k-cycle window.
func fig1Cells() []streamCell {
	var out []streamCell
	for _, k := range experiments.Fig1Kinds() {
		for _, ilp := range streams.Levels() {
			sp := streams.Spec{Kind: k, ILP: ilp}
			out = append(out,
				streamCell{Specs: []streams.Spec{sp}, Window: experiments.StreamWindowCycles},
				streamCell{Specs: []streams.Spec{sp, sp}, Window: experiments.StreamWindowCycles})
		}
	}
	return out
}

// arranged builds the cell for one stream in one of three arrangements:
// 0 solo, 1 same-stream duo, 2 paired with partner.
func arranged(sp streams.Spec, arrangement int, partner streams.Spec, window uint64) streamCell {
	switch arrangement {
	case 0:
		return streamCell{Specs: []streams.Spec{sp}, Window: window}
	case 1:
		return streamCell{Specs: []streams.Spec{sp, sp}, Window: window}
	}
	return streamCell{Specs: []streams.Spec{sp, partner}, Window: window}
}

// partnerOf steps through the other kinds (and the ILP degrees) as a
// mixed-pair partner for kind index i: step s picks the kind s%12+1
// places on, never the kind itself.
func partnerOf(i, s int) streams.Spec {
	kinds := streams.All()
	n := len(kinds)
	return streams.Spec{Kind: kinds[(i+1+s%(n-1))%n], ILP: streams.Levels()[(i+s)%3]}
}

type combo struct {
	kind streams.Kind
	ilp  streams.ILP
}

func allCombos() []combo {
	var out []combo
	for _, k := range streams.All() {
		for _, ilp := range streams.Levels() {
			out = append(out, combo{k, ilp})
		}
	}
	return out
}

// streamGen yields the drawn part of the streams workload, one round at a
// time. A round measures every stream kind once, over windows spread
// evenly from the figure's 120k cycles to the 800k light-job window; from
// round to round each kind steps through the ILP degrees, the three
// arrangements, its mixed-pair partners and the windows. The seed
// shuffles each round's order. Every seed thus runs the same cells, so
// runs on different seeds measure the same work in a different order.
type streamGen struct {
	rng   *rand.Rand
	r     int
	round []streamCell
}

const (
	minStreamWindow = 120_000
	maxStreamWindow = 800_000
	// windowStride spreads the kinds over the window levels; it is
	// coprime with the number of kinds, so a round uses every level once.
	windowStride = 5
)

func newStreamGen(seed int64) *streamGen { return &streamGen{rng: newRand(seed, "streams")} }

func (g *streamGen) next() streamCell {
	if len(g.round) == 0 {
		g.round = g.newRound()
	}
	c := g.round[0]
	g.round = g.round[1:]
	return c
}

func (g *streamGen) newRound() []streamCell {
	kinds := streams.All()
	levels := streams.Levels()
	n := len(kinds)
	out := make([]streamCell, 0, n)
	for i, k := range kinds {
		level := (i*windowStride + g.r) % n
		w := uint64(minStreamWindow+level*(maxStreamWindow-minStreamWindow)/(n-1)) / 1000 * 1000
		sp := streams.Spec{Kind: k, ILP: levels[(i+g.r)%3]}
		out = append(out, arranged(sp, (i+g.r/3)%3, partnerOf(i, g.r), w))
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	g.r++
	return out
}

// streamRoundLen is the number of cells in one streams round.
func streamRoundLen() int { return len(streams.All()) }

// mmSmallSizes are the Figure 3 sizes cmd/kernels/testdata/mm-small.golden
// pins.
var mmSmallSizes = []int{16, 32}

// mmSmallCells are the mm-small golden's rows, in the figure's order.
func mmSmallCells() ([]kernelCell, error) {
	var out []kernelCell
	for _, n := range mmSmallSizes {
		modes, err := experiments.KernelModes("mm", n)
		if err != nil {
			return nil, err
		}
		for _, m := range modes {
			out = append(out, kernelCell{Kernel: "mm", Size: n, Mode: m})
		}
	}
	return out, nil
}

// kernelGroup is one kernel instance class of the kernels workload.
// sizes lists interchangeable sizes the rounds alternate between.
type kernelGroup struct {
	kernel string
	sizes  []int
}

// kernelGroups span the kernel machine's memory hierarchy: mm and lu
// working sets that fit the 8 KB L1, fit the 32 KB L2, and fill or
// exceed it (mm N=16/32/64 holds three N×N float64 matrices, lu N=16/32/64
// one; both kernels need power-of-two sizes), plus reduced CG and BT
// instances.
var kernelGroups = []kernelGroup{
	{"mm", []int{16}}, {"mm", []int{32}}, {"mm", []int{64}},
	{"lu", []int{16}}, {"lu", []int{32}}, {"lu", []int{64}},
	{"cg", []int{48, 64}}, {"bt", []int{3}},
}

// kernelGen yields the drawn part of the kernels workload one round at a
// time: each round runs every instance class once, and from round to
// round each class steps through its sizes and all of its modes
// (including the tlp-pfetch helper-thread modes). The instances are the
// canonical (kernel, size, mode) cells, so the seed varies the order
// each round runs them in; every seed measures the same mix.
type kernelGen struct {
	rng   *rand.Rand
	r     int
	round []kernelCell
}

func newKernelGen(seed int64) *kernelGen { return &kernelGen{rng: newRand(seed, "kernels")} }

func (g *kernelGen) next() (kernelCell, error) {
	if len(g.round) == 0 {
		for i, grp := range kernelGroups {
			size := grp.sizes[g.r%len(grp.sizes)]
			modes, err := experiments.KernelModes(grp.kernel, size)
			if err != nil {
				return kernelCell{}, err
			}
			g.round = append(g.round, kernelCell{Kernel: grp.kernel, Size: size, Mode: modes[(g.r+i)%len(modes)]})
		}
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
		g.r++
	}
	c := g.round[0]
	g.round = g.round[1:]
	return c, nil
}

// job is one request of the jobs workloads: warm cells pre-simulated
// into the store during set-up, or one cold cell (unique, so it must
// simulate).
type job struct {
	Warm   bool
	Kind   string // "warm", "cold-stream" or "cold-kernel"
	Specs  []service.CellSpec
	Labels []string
}

// The job mix. The job shape — one cell per job, the cold stream job an
// 800k-cycle fadd stream — is the light tenant of scripts/load-smoke.sh
// (cells_per_job 1, window_base 800000, default fadd stream). The
// repository's committed scenarios have no warm traffic, so the other
// constants are set here, each for the reason given beside it (README.md,
// "The job mix", has the arithmetic). Every run prints the warm-job split
// they produce between the store tier and memory.
const (
	// warmPoolSize makes about half the warm jobs of a run first touches,
	// served from the store: w draws with replacement from a pool of n
	// touch n·(1−e^(−w/n)) distinct cells, 50% of w for the ≈260 warm
	// jobs of a 15-second jobs-cluster run on a 2-core Xeon.
	warmPoolSize = 160
	// warmJobCells is the number of pool cells in a warm job, as in the
	// light tenant's jobs.
	warmJobCells = 1
	// coldEvery makes one job in coldEvery cold; the rest are warm. The
	// cluster's leading 30·coldEvery jobs then hold 30 cold ones, enough
	// for a cold tail above the median (p66.7, 10 samples beyond), and
	// their ≈0.3 s simulations each still let the leading jobs finish
	// within a 15-second timed phase.
	coldEvery = 7
	// kernelEvery makes one cold job in kernelEvery a kernel cell — the
	// minority of checkpointing cold jobs — while the 21-cell small-kernel
	// catalog lasts, which is longer than the ≈40 cold jobs of a run.
	kernelEvery = 4
	// lightWindow is the light-job stream window of the cold stream jobs.
	lightWindow = 800_000
)

// lightStream is the light job's stream, as internal/loadgen's light
// tenant submits it: one fadd stream at the default (maximum) ILP.
var lightStream = streams.Spec{Kind: streams.FAddS, ILP: streams.MaxILP}

// warmPool draws the set of short stream cells pre-simulated into the
// store during set-up: distinct cells over every kind, ILP degree and
// arrangement, with 4k–16k-cycle windows. The windows are short because
// every set-up simulates the whole pool again (setup_s is a median of
// several): with them a jobs-cluster set-up takes ≈0.4 s on two cores.
func warmPool(seed int64) []streamCell {
	rng := newRand(seed, "warm-pool")
	combos := allCombos()
	seen := map[string]bool{}
	var out []streamCell
	for len(out) < warmPoolSize {
		c := combos[rng.IntN(len(combos))]
		w := uint64(4000 + 250*rng.IntN(49))
		cell := arranged(streams.Spec{Kind: c.kind, ILP: c.ilp}, rng.IntN(3), partnerOf(int(c.kind), rng.IntN(64)), w)
		if l := cell.label(); !seen[l] {
			seen[l] = true
			out = append(out, cell)
		}
	}
	return out
}

// coldKernelCatalog is the small-kernel cells cold jobs draw from without
// replacement (a repeat would be served from the cache, not simulated).
func coldKernelCatalog() ([]kernelCell, error) {
	var byInst [][]kernelCell
	for _, inst := range []struct {
		kernel string
		size   int
	}{{"mm", 16}, {"lu", 16}, {"mm", 32}, {"lu", 32}, {"bt", 3}} {
		modes, err := experiments.KernelModes(inst.kernel, inst.size)
		if err != nil {
			return nil, err
		}
		var cells []kernelCell
		for _, m := range modes {
			cells = append(cells, kernelCell{Kernel: inst.kernel, Size: inst.size, Mode: m})
		}
		byInst = append(byInst, cells)
	}
	// Interleave the instances, so any prefix mixes small and larger cells.
	var out []kernelCell
	for k := 0; len(byInst) > 0; k++ {
		rest := byInst[:0]
		for _, cells := range byInst {
			out = append(out, cells[0])
			if len(cells) > 1 {
				rest = append(rest, cells[1:])
			}
		}
		byInst = rest
	}
	return out, nil
}

// jobGen yields the job sequence both clients of a jobs workload share:
// every coldEvery-th job (from a seed-drawn phase) is cold, the rest are
// seed-drawn warm cells from the pool. Cold jobs are light jobs — one
// lightStream over a window counting down from lightWindow, so each is
// unique — with every kernelEvery-th one a small checkpointing kernel
// cell while the catalog lasts. The cold sequence is the same for every
// seed, so every seed puts the same simulation work behind its cold jobs.
type jobGen struct {
	pool    []streamCell
	warmRng *rand.Rand
	phase   int
	i       int
	cold    int
	kernels []kernelCell
}

func newJobGen(seed int64, pool []streamCell) (*jobGen, error) {
	cat, err := coldKernelCatalog()
	if err != nil {
		return nil, err
	}
	return &jobGen{pool: pool, warmRng: newRand(seed, "warm-draws"), phase: newRand(seed, "cold-phase").IntN(coldEvery), kernels: cat}, nil
}

func (g *jobGen) next() job {
	i := g.i
	g.i++
	if i%coldEvery != g.phase {
		j := job{Warm: true, Kind: "warm"}
		for _, k := range g.warmRng.Perm(len(g.pool))[:warmJobCells] {
			j.Specs = append(j.Specs, g.pool[k].cellSpec())
			j.Labels = append(j.Labels, g.pool[k].label())
		}
		return j
	}
	n := g.cold
	g.cold++
	if n%kernelEvery == kernelEvery-1 && len(g.kernels) > 0 {
		k := g.kernels[0]
		g.kernels = g.kernels[1:]
		return job{Kind: "cold-kernel", Specs: []service.CellSpec{k.cellSpec()}, Labels: []string{k.label()}}
	}
	// Windows count down from the light-job window, one cycle per cold
	// stream job, so no two cold cells share a cache key.
	cell := streamCell{Specs: []streams.Spec{lightStream}, Window: uint64(lightWindow - n)}
	return job{Kind: "cold-stream", Specs: []service.CellSpec{cell.cellSpec()}, Labels: []string{cell.label()}}
}

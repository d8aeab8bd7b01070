package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/bt"
	"smtexplore/internal/kernels/cg"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/runner"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// simStats accumulates the replayed cells' timings (build vs run) and
// the simulator's exact counters.
type simStats struct {
	cells                        int
	buildNS, runNS               int64
	newNS, openNS, programsNS    int64
	news, opens, programs        int
	cycles, uops, instr          uint64
	resourceStall, spinUops      uint64
	l1Access, l1Miss             uint64
	l2Access, l2Miss             uint64
	prefetchIssued, prefetchUsed uint64
}

// addMachine books a finished machine's exact counters.
func (s *simStats) addMachine(m *smt.Machine) {
	c := m.Counters()
	h := m.Hierarchy()
	s.cells++
	s.cycles += m.Cycle()
	s.uops += c.Total(perfmon.UopsRetired)
	s.instr += c.Total(perfmon.InstrRetired)
	s.resourceStall += c.Total(perfmon.ResourceStallCycles)
	s.spinUops += c.Total(perfmon.SpinUopsRetired)
	a, miss, _, _ := h.L1().Stats()
	s.l1Access += a
	s.l1Miss += miss
	a, miss, _, _ = h.L2().Stats()
	s.l2Access += a
	s.l2Miss += miss
	issued, useful := h.PrefetchStats()
	s.prefetchIssued += issued
	s.prefetchUsed += useful
}

// simWorkload describes one simulation workload to the shared loop:
// cells of type C measured cold into results of type R.
type simWorkload[C, R any] struct {
	fixed      []C               // run first and checked against a golden
	next       func() (C, error) // the seed-drawn cells after fixed, in rounds
	roundLen   int               // cells per drawn round
	leadRounds int               // drawn rounds in the leading cells
	label      func(C) string
	cycles     func(C, R) uint64             // simulated cycles of one cell
	cold       func(C) (R, error)            // the program's measured call, uncached
	mirror     func(C, *simStats) (R, error) // the same simulation via smt's own API, timed by stage (traced runs, after the timed phase)
	cache      *runner.Cache                 // the warm path's result cache
	inject     func(C, R) error              // put a fixed cell's cold result into cache
	// warm regenerates the workload's golden figure (Figure 1, or the mm
	// rows of Figure 3) through its figure harness with cache already
	// holding the cells — the reuse a harness makes of another figure's
	// cells, as Figure 2's diagonals are Figure 1's duos — and checks it
	// against the golden file.
	warm func() error
}

// runSim is the simulation workloads' timed loop. It measures cold cells
// one at a time — the fixed cells first, whose results then fill the
// warm path's cache, then drawn cells, each followed by a warm request —
// and stops at the first round boundary after the deadline, so the
// timed work is the fixed cells plus whole rounds. The leading cells
// (fixed plus leadRounds rounds) always run; they are the same requests
// in every run of a seed, so the latency percentiles, the digest and the
// exact counters are taken over them. Throughput counts every request.
// Traced or not, the timed phase calls the program's own functions.
func runSim[C, R any](b *bench, w simWorkload[C, R]) (results []R, err error) {
	lead := len(w.fixed) + w.leadRounds*w.roundLen
	var done []C
	var cold, warm latencies // the leading cells' requests
	warmAll := 0
	var cycles uint64
	var coldTime time.Duration // summed over every cold call
	deadline := time.Now().Add(b.seconds)
	var loopErr error
	ps, err := b.timed(func() {
		for i := 0; i < lead || time.Now().Before(deadline) || (i-len(w.fixed))%w.roundLen != 0; i++ {
			var c C
			if i < len(w.fixed) {
				c = w.fixed[i]
			} else if c, loopErr = w.next(); loopErr != nil {
				return
			}
			start := time.Now()
			r, err := w.cold(c)
			d := time.Since(start)
			coldTime += d
			b.tr.span(1, "cell", "cell", start, d, map[string]any{"cell": w.label(c)})
			b.attempted++
			if err != nil {
				loopErr = fmt.Errorf("cell %s: %w", w.label(c), err)
				return
			}
			if i < lead {
				cold.add(ms(d))
			}
			cycles += w.cycles(c, r)
			done = append(done, c)
			results = append(results, r)
			if i < len(w.fixed) {
				if loopErr = w.inject(c, r); loopErr != nil {
					return
				}
				continue
			}
			start = time.Now()
			loopErr = w.warm()
			d = time.Since(start)
			b.tr.span(2, "warm", "warm", start, d, nil)
			b.attempted++
			warmAll++
			if loopErr != nil {
				loopErr = fmt.Errorf("warm figure: %w", loopErr)
				return
			}
			if i < lead {
				warm.add(ms(d))
			}
			if i == lead-1 {
				// Later rounds touch stream specs the leading ones did not,
				// and streams caches every spec's body for the process, so
				// the peak is taken over the leading cells every run makes.
				b.e2e["peak_rss_mb"] = peakRSSMB()
			}
		}
	})
	if err == nil {
		err = loopErr
	}
	if err != nil {
		return nil, err
	}
	secs := ps.elapsed.Seconds()
	b.e2e["cells_per_s"] = float64(len(done)) / secs
	b.e2e["sim_mcycles_per_s"] = float64(cycles) / secs / 1e6
	b.e2e["jobs_per_s"] = float64(len(done)+warmAll) / secs
	b.latencyMetrics("warm", warm)
	b.latencyMetrics("cold", cold)
	b.note("cells cold=%d warm=%d simulated_cycles=%d elapsed_s=%.3f; latencies over the %d leading cells", len(done), warmAll, cycles, secs, lead)

	digest := sha256.New()
	for i := 0; i < lead; i++ {
		data, err := json.Marshal(results[i])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(digest, "%s\t%s\n", w.label(done[i]), data)
	}
	b.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	b.note("sim_digest %s over the %d leading cells", b.digest, lead)

	if b.traced {
		// Every layer metric of the JSON result comes from the timed
		// phase, which ran the program's own calls.
		b.layer("smt.host_ns_per_cycle", ratio(float64(coldTime), float64(cycles)), "ns")
		b.layer("experiments.cell_ms.p50", finite(median(cold.sorted())), "ms")
		cs := w.cache.Stats()
		b.layer("runner.cache_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio")
		// A cold request is the measured call itself; what no layer
		// explains is the warm requests' time in the figure harness.
		b.layer("jobs.unattributed_ms", ratio(sumOf(warm), float64(len(cold)+len(warm))), "ms")
		b.runtimeLayers(ps, len(done))
		replay(b, w, done[:lead], results[:lead], cold)
	}
	return results, nil
}

// replayRow is the trace row of the cells replayed after the timed phase.
const replayRow = 3

// replay re-runs the leading cells through the workload's mirror after
// the timed phase, to split each cell's build from its run and to read
// the simulator's exact counters, which the program's calls do not
// expose. The mirror is the benchmark's copy of the program's cell
// code, so its layer lines are reported only if every mirrored result
// equals the program's. cold holds the program's call times for the
// same cells.
func replay[C, R any](b *bench, w simWorkload[C, R], cells []C, want []R, cold latencies) {
	b.tr.name(replayRow, "replay (after the timed phase)")
	var st simStats
	for i, c := range cells {
		start := time.Now()
		r, err := w.mirror(c, &st)
		b.tr.span(replayRow, "replay", "cell", start, time.Since(start), map[string]any{"cell": w.label(c)})
		if err == nil && !reflect.DeepEqual(r, want[i]) {
			err = fmt.Errorf("result differs from the program's")
		}
		if err != nil {
			b.note("replay of %s: %v; build split and exact counters not reported", w.label(c), err)
			return
		}
	}
	b.layer("smt.host_ns_per_uop", ratio(1e6*sumOf(cold), float64(st.uops)), "ns")
	b.layer("smt.run_ns_per_cycle", ratio(float64(st.runNS), float64(st.cycles)), "ns")
	b.layer("experiments.build_ms", ratio(float64(st.buildNS)/1e6, float64(st.cells)), "ms")
	b.layer("smt.new_us", ratio(float64(st.newNS)/1e3, float64(st.news)), "us")
	if st.opens > 0 {
		b.layer("streams.open_us", ratio(float64(st.openNS)/1e3, float64(st.opens)), "us")
	}
	if st.programs > 0 {
		b.layer("kernels.programs_ms", ratio(float64(st.programsNS)/1e6, float64(st.programs)), "ms")
	}
	b.layer("smt.cycles", float64(st.cycles), "cycles")
	b.layer("smt.uops_retired", float64(st.uops), "uops")
	b.layer("smt.ipc", ratio(float64(st.instr), float64(st.cycles)), "instr/cycle")
	b.layer("smt.resource_stall_cycles", float64(st.resourceStall), "cycles")
	b.layer("smt.spin_uop_ratio", ratio(float64(st.spinUops), float64(st.uops)), "ratio")
	b.layer("mem.l1_miss_ratio", ratio(float64(st.l1Miss), float64(st.l1Access)), "ratio")
	b.layer("mem.l2_miss_ratio", ratio(float64(st.l2Miss), float64(st.l2Access)), "ratio")
	b.layer("mem.prefetch_useful_ratio", ratio(float64(st.prefetchUsed), float64(st.prefetchIssued)), "ratio")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// stage books one step of a replayed cell and records it as a span on
// the replay row.
func (b *bench) stage(name string, start time.Time, ns *int64, count *int) time.Time {
	now := time.Now()
	*ns += int64(now.Sub(start))
	if count != nil {
		*count++
	}
	b.tr.span(replayRow, "replay", name, start, now.Sub(start), nil)
	return now
}

func runStreams(b *bench) error {
	mcfg := experiments.StreamMachineConfig()
	var gen *streamGen
	var golden []byte
	var cache *runner.Cache
	teardown, err := b.setup(func() (func(), error) {
		gen = newStreamGen(b.seed)
		cache = runner.NewCache()
		var err error
		if golden, err = os.ReadFile(filepath.Join(b.root, "cmd", "streams", "testdata", "fig1.golden")); err != nil {
			return nil, err
		}
		// Warm-up: one short duo through the measured call, so lazy
		// process set-up is paid here rather than by the first cell.
		sp := streams.Spec{Kind: streams.FAddS, ILP: streams.MaxILP}
		_, err = experiments.MeasureCPI(mcfg, []streams.Spec{sp, sp}, 20_000)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	fig1 := fig1Cells()
	b.tr.name(1, "cells (cold)")
	b.tr.name(2, "cache (warm)")
	cpis, err := runSim(b, simWorkload[streamCell, []float64]{
		fixed:      fig1,
		roundLen:   streamRoundLen(),
		leadRounds: streamLeadRounds,
		next:       func() (streamCell, error) { return gen.next(), nil },
		label:      streamCell.label,
		cycles:     func(c streamCell, _ []float64) uint64 { return c.Window },
		cold: func(c streamCell) ([]float64, error) {
			return experiments.MeasureCPI(mcfg, c.Specs, c.Window)
		},
		mirror: func(c streamCell, st *simStats) ([]float64, error) { return b.streamMirror(mcfg, c, st) },
		cache:  cache,
		inject: func(c streamCell, cpi []float64) error {
			_, err := runner.Cached(cache, experiments.StreamCellKey(mcfg, c.Specs, c.Window), func() ([]float64, error) { return cpi, nil })
			return err
		},
		warm: func() error {
			rows, err := experiments.Fig1(context.Background(), experiments.Options{Cache: cache}, mcfg, experiments.Fig1Kinds())
			if err != nil {
				return err
			}
			return sameBytes([]byte(experiments.FormatFig1(rows)+"\n"), golden)
		},
	})
	if err != nil {
		return err
	}
	rows := make([]experiments.Fig1Row, len(fig1))
	for i, c := range fig1 {
		avg := cpis[i][0]
		if len(c.Specs) == 2 {
			avg = (cpis[i][0] + cpis[i][1]) / 2
		}
		rows[i] = experiments.Fig1Row{Stream: c.Specs[0].Kind, ILP: c.Specs[0].ILP, Threads: len(c.Specs), CPI: avg}
	}
	b.check("fig1 cells byte-identical to cmd/streams/testdata/fig1.golden",
		sameBytes([]byte(experiments.FormatFig1(rows)+"\n"), golden))
	return nil
}

// streamMirror measures one stream cell exactly as experiments.MeasureCPI
// does, through smt's and streams' public API, so a traced run can time
// the build (machine, stream generators) apart from the run and read the
// machine's counters.
func (b *bench) streamMirror(mcfg smt.Config, c streamCell, st *simStats) ([]float64, error) {
	start := time.Now()
	m := smt.New(mcfg)
	defer m.Close()
	t := b.stage("smt.new", start, &st.newNS, &st.news)
	for i, sp := range c.Specs {
		sp.Base = streams.DisjointBase(i)
		s := streams.Open(sp)
		t = b.stage("streams.open", t, &st.openNS, &st.opens)
		m.LoadStream(i, s)
	}
	t = b.stage("build", start, &st.buildNS, nil)
	if _, err := m.Run(c.Window); err != nil {
		return nil, err
	}
	b.stage("run", t, &st.runNS, nil)
	cnt := m.Counters()
	out := make([]float64, len(c.Specs))
	for i := range c.Specs {
		instr := cnt.Get(perfmon.InstrRetired, i)
		if instr == 0 {
			return nil, fmt.Errorf("context %d retired nothing", i)
		}
		out[i] = float64(cnt.Get(perfmon.Cycles, i)) / float64(instr)
	}
	st.addMachine(m)
	return out, nil
}

// kernelCycleBudget bounds a mirrored kernel run. It only stops a
// runaway: the mirror replays cells the program's own call completed.
const kernelCycleBudget = 8_000_000_000

// kernelBuilder constructs the canonical (kernel, size) instance and its
// display label, as experiments.NamedKernelCell does.
func kernelBuilder(kernel string, size int) (experiments.Builder, string, error) {
	switch kernel {
	case "mm":
		k, err := mm.New(mm.DefaultConfig(size))
		return k, fmt.Sprintf("N=%d", size), err
	case "lu":
		k, err := lu.New(lu.DefaultConfig(size))
		return k, fmt.Sprintf("N=%d", size), err
	case "cg":
		c := cg.DefaultConfig()
		c.N = size
		k, err := cg.New(c)
		return k, fmt.Sprintf("n=%d nnz/row=%d iters=%d", c.N, c.NNZPerRow, c.Iters), err
	case "bt":
		c := bt.DefaultConfig()
		c.G = size
		k, err := bt.New(c)
		return k, fmt.Sprintf("G=%d steps=%d", c.G, c.Steps), err
	}
	return nil, "", fmt.Errorf("unknown kernel %q", kernel)
}

// kernelMirror runs one kernel cell as experiments.NamedKernelCell does
// (without its cache), through the kernels' and smt's public API, timing
// program building and machine construction apart from the run.
func (b *bench) kernelMirror(c kernelCell, st *simStats) (experiments.KernelMetrics, error) {
	start := time.Now()
	bld, label, err := kernelBuilder(c.Kernel, c.Size)
	if err != nil {
		return experiments.KernelMetrics{}, err
	}
	progs, err := bld.Programs(c.Mode)
	if err != nil {
		return experiments.KernelMetrics{}, err
	}
	t := b.stage("kernels.programs", start, &st.programsNS, &st.programs)
	m := smt.New(experiments.KernelMachineConfig())
	defer m.Close()
	b.stage("smt.new", t, &st.newNS, &st.news)
	m.LoadProgram(kernels.WorkerTid, progs[0])
	if progs[1] != nil {
		m.LoadProgram(kernels.HelperTid, progs[1])
	}
	t = b.stage("build", start, &st.buildNS, nil)
	res, err := m.Run(kernelCycleBudget)
	if err != nil {
		return experiments.KernelMetrics{}, err
	}
	if !res.Completed {
		return experiments.KernelMetrics{}, fmt.Errorf("%s did not complete", c.label())
	}
	b.stage("run", t, &st.runNS, nil)
	st.addMachine(m)
	cnt, h := m.Counters(), m.Hierarchy()
	return experiments.KernelMetrics{
		Kernel:              bld.Name(),
		Mode:                c.Mode,
		Label:               label,
		Cycles:              m.Cycle(),
		L2ReadMissesWorker:  h.Thread(kernels.WorkerTid).L2ReadMisses,
		L2ReadMissesBoth:    h.Thread(0).L2ReadMisses + h.Thread(1).L2ReadMisses,
		ResourceStallCycles: cnt.Total(perfmon.ResourceStallCycles),
		UopsRetired:         cnt.Total(perfmon.UopsRetired),
		SpinUops:            cnt.Total(perfmon.SpinUopsRetired),
		MachineClears:       cnt.Total(perfmon.MachineClears),
		HaltTransitions:     cnt.Total(perfmon.HaltTransitions),
		PipelineFlushes:     cnt.Total(perfmon.PipelineFlushes),
		WorkerInstr:         cnt.Get(perfmon.InstrRetired, kernels.WorkerTid),
		HelperInstr:         cnt.Get(perfmon.InstrRetired, kernels.HelperTid),
	}, nil
}

// The leading cells of the simulation workloads: Figure 1 plus five
// streams rounds (95 cells), the mm-small rows plus five kernel rounds
// (52 cells); each takes 11-13 seconds of a 15-second timed phase on a
// 2-core Xeon.
const (
	streamLeadRounds = 5
	kernelLeadRounds = 5
)

func runKernels(b *bench) error {
	var gen *kernelGen
	var golden []byte
	var fixed []kernelCell
	var cache *runner.Cache
	teardown, err := b.setup(func() (func(), error) {
		gen = newKernelGen(b.seed)
		cache = runner.NewCache()
		var err error
		if fixed, err = mmSmallCells(); err != nil {
			return nil, err
		}
		if golden, err = os.ReadFile(filepath.Join(b.root, "cmd", "kernels", "testdata", "mm-small.golden")); err != nil {
			return nil, err
		}
		// Warm-up: the smallest kernel cell through the measured call.
		_, err = experiments.NamedKernelCell(experiments.Options{}, "lu", 16, kernels.Serial)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	b.tr.name(1, "cells (cold)")
	b.tr.name(2, "cache (warm)")
	ms, err := runSim(b, simWorkload[kernelCell, experiments.KernelMetrics]{
		fixed:      fixed,
		roundLen:   len(kernelGroups),
		leadRounds: kernelLeadRounds,
		next:       gen.next,
		label:      kernelCell.label,
		cycles:     func(_ kernelCell, km experiments.KernelMetrics) uint64 { return km.Cycles },
		cold: func(c kernelCell) (experiments.KernelMetrics, error) {
			return experiments.NamedKernelCell(experiments.Options{}, c.Kernel, c.Size, c.Mode)
		},
		mirror: b.kernelMirror,
		cache:  cache,
		inject: func(c kernelCell, km experiments.KernelMetrics) error {
			key, err := experiments.KernelCellKey(c.Kernel, c.Size, c.Mode)
			if err != nil {
				return err
			}
			_, err = runner.Cached(cache, key, func() (experiments.KernelMetrics, error) { return km, nil })
			return err
		},
		warm: func() error {
			ms, err := experiments.Fig3MM(context.Background(), experiments.Options{Cache: cache}, mmSmallSizes)
			if err != nil {
				return err
			}
			return sameBytes([]byte(experiments.FormatKernelFigure(fig3Title, ms)+"\n"), golden)
		},
	})
	if err != nil {
		return err
	}
	b.check("mm N=16/32 rows byte-identical to cmd/kernels/testdata/mm-small.golden",
		sameBytes([]byte(experiments.FormatKernelFigure(fig3Title, ms[:len(fixed)])+"\n"), golden))
	return nil
}

// fig3Title is Figure 3's title as cmd/kernels prints it.
const fig3Title = "Figure 3 — Matrix Multiplication"

// sameBytes reports where got first differs from want.
func sameBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Errorf("first difference at byte %d (got %d bytes, want %d)", n, len(got), len(want))
}

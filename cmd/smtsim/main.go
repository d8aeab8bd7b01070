// Command smtsim is the generic simulator driver: it runs any benchmark
// kernel in any execution mode (or a synthetic stream pair, or assembled
// µop programs) on a chosen machine configuration and dumps the full
// performance-counter bank — the workflow of the paper's
// monitoring-library measurements.
//
// Usage:
//
//	smtsim -kernel mm -mode tlp-pfetch -size 64
//	smtsim -kernel cg -mode serial
//	smtsim -stream fadd,fmul -ilp 6
//	smtsim -program worker.uasm,helper.uasm      # assembled µop programs
//	smtsim -program demo.uasm -timeline 40       # plus a pipeline timeline
//
// Observability exports (any workload):
//
//	smtsim -stream fadd,iload -trace out.json        # Chrome/Perfetto trace
//	smtsim -kernel mm -mode tlp-fine -occupancy occ.csv
//	smtsim -kernel mm -mode serial -metrics m.json   # counter bank snapshot
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"smtexplore/internal/uasm"

	"smtexplore/internal/core"
	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/obs"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("smtsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the driver body, separated from main so tests can exercise the
// full flag-to-file pipeline in-process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smtsim", flag.ContinueOnError)
	kernel := fs.String("kernel", "", "benchmark kernel: mm, lu, cg or bt")
	mode := fs.String("mode", "serial", "execution mode: serial, tlp-fine, tlp-coarse, tlp-pfetch, tlp-pfetch+work")
	size := fs.Int("size", 0, "problem size (MM/LU matrix dimension; 0 = kernel default)")
	stream := fs.String("stream", "", "comma-separated stream kinds to co-run instead of a kernel (e.g. fadd,fmul)")
	ilp := fs.Int("ilp", 6, "ILP degree for streams: 1, 3 or 6")
	window := fs.Uint64("cycles", experiments.StreamWindowCycles, "cycle budget for stream runs")
	program := fs.String("program", "", "comma-separated µop-assembly files to run (1 per context)")
	timelineN := fs.Int("timeline", 0, "show a pipeline timeline of the last N retired µops")
	ov := newObserverFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}

	switch {
	case *program != "":
		return runPrograms(out, ov, *program, *window, *timelineN)
	case *stream != "":
		return runStreams(out, ov, *stream, *ilp, *window)
	case *kernel != "":
		return runKernel(out, ov, *kernel, *mode, *size)
	default:
		fmt.Fprintln(os.Stderr, "smtsim: nothing to run: pass -kernel, -stream or -program")
		fs.Usage()
		return errUsage
	}
}

// observer bundles the optional observability exports behind their flags:
// a pipeline tracer (Chrome trace-event JSON), a per-cycle occupancy
// sampler (CSV, or JSON for .json paths) and a structured metrics
// snapshot. Attach before running, flush after.
type observer struct {
	tracePath   string
	occPath     string
	metricsPath string
	sampleEvery uint64
	traceMax    int

	tracer  *obs.Tracer
	sampler *obs.Sampler
	started time.Time
}

func newObserverFlags(fs *flag.FlagSet) *observer {
	ov := &observer{}
	fs.StringVar(&ov.tracePath, "trace", "", "write a Chrome/Perfetto trace-event JSON file of the pipeline")
	fs.StringVar(&ov.occPath, "occupancy", "", "write the occupancy time series (CSV, or JSON if the path ends in .json)")
	fs.StringVar(&ov.metricsPath, "metrics", "", "write a structured JSON snapshot of all counters")
	fs.Uint64Var(&ov.sampleEvery, "sample", 128, "occupancy sampling period in cycles")
	fs.IntVar(&ov.traceMax, "trace-max", obs.DefaultTracerMax, "retain at most this many newest trace spans")
	return ov
}

func (ov *observer) active() bool {
	return ov.tracePath != "" || ov.occPath != "" || ov.metricsPath != ""
}

func (ov *observer) attach(m *smt.Machine) {
	ov.started = time.Now()
	if ov.tracePath != "" {
		ov.tracer = obs.NewTracer(obs.TracerConfig{Max: ov.traceMax})
		ov.tracer.Attach(m)
	}
	if ov.occPath != "" || ov.tracePath != "" {
		ov.sampler = obs.NewSampler(obs.SamplerConfig{Every: ov.sampleEvery})
		ov.sampler.Attach(m)
	}
}

// flush writes every requested export. Call once, after the run.
func (ov *observer) flush(m *smt.Machine, label string, completed bool) error {
	wall := time.Since(ov.started)
	if ov.sampler != nil {
		ov.sampler.Finish()
	}
	if ov.tracePath != "" {
		err := writeFile(ov.tracePath, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, ov.tracer.Spans(), ov.sampler.Samples())
		})
		if err != nil {
			return err
		}
	}
	if ov.occPath != "" {
		err := writeFile(ov.occPath, func(w io.Writer) error {
			if strings.HasSuffix(ov.occPath, ".json") {
				return ov.sampler.WriteJSON(w)
			}
			return ov.sampler.WriteCSV(w)
		})
		if err != nil {
			return err
		}
	}
	if ov.metricsPath != "" {
		x := obs.CollectMetrics(m, label, completed)
		x.Put("wall_seconds", wall.Seconds())
		if ov.tracer != nil {
			x.Put("trace_spans", len(ov.tracer.Spans()))
			x.Put("trace_spans_dropped", ov.tracer.Dropped())
		}
		if err := writeFile(ov.metricsPath, x.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runPrograms assembles and co-runs µop-assembly files.
func runPrograms(out io.Writer, ov *observer, list string, window uint64, timelineN int) error {
	paths := strings.Split(list, ",")
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("want 1 or 2 program files, got %d", len(paths))
	}
	machine := smt.New(core.StreamMachine())
	defer machine.Close()
	var tracer *smt.Tracer
	if timelineN > 0 {
		tracer = smt.NewTracer(timelineN)
		tracer.Attach(machine)
	}
	ov.attach(machine)
	for i, path := range paths {
		src, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		p, err := uasm.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		machine.LoadProgram(i, p)
	}
	res, err := machine.Run(window)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "programs %s: %d cycles, completed=%v\n\n", list, machine.Cycle(), res.Completed)
	dump(out, machine)
	if tracer != nil {
		fmt.Fprintf(out, "\npipeline timeline (last %d retired µops; A alloc, I issue, C complete, R retire):\n", timelineN)
		fmt.Fprint(out, tracer.Timeline(0, machine.Cycle()+1, 64))
		st := tracer.Stats()
		fmt.Fprintf(out, "\nstage averages over %d µops: queue %.1f, execute %.1f, commit-wait %.1f cycles\n",
			st.Count, st.AvgQueue, st.AvgExecute, st.AvgCommit)
	}
	return ov.flush(machine, "program:"+list, res.Completed)
}

func parseBenchmark(s string) (core.Benchmark, error) {
	switch s {
	case "mm":
		return core.BenchmarkMM, nil
	case "lu":
		return core.BenchmarkLU, nil
	case "cg":
		return core.BenchmarkCG, nil
	case "bt":
		return core.BenchmarkBT, nil
	}
	return 0, fmt.Errorf("unknown kernel %q", s)
}

func runKernel(out io.Writer, ov *observer, kernel, modeName string, size int) error {
	b, err := parseBenchmark(kernel)
	if err != nil {
		return err
	}
	m, err := kernels.ParseMode(modeName)
	if err != nil {
		return err
	}
	if size == 0 && (b == core.BenchmarkMM || b == core.BenchmarkLU) {
		size = 64
	}
	builder, err := core.NewBuilder(b, size)
	if err != nil {
		return err
	}
	progs, err := builder.Programs(m)
	if err != nil {
		return err
	}
	machine := smt.New(core.KernelMachine())
	defer machine.Close()
	ov.attach(machine)
	machine.LoadProgram(kernels.WorkerTid, progs[0])
	if progs[1] != nil {
		machine.LoadProgram(kernels.HelperTid, progs[1])
	}
	res, err := machine.Run(8_000_000_000)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s / %s (size %d): %d cycles, completed=%v\n\n",
		kernel, modeName, size, machine.Cycle(), res.Completed)
	dump(out, machine)
	return ov.flush(machine, fmt.Sprintf("%s/%s/%d", kernel, modeName, size), res.Completed)
}

func runStreams(out io.Writer, ov *observer, list string, ilp int, window uint64) error {
	parts := strings.Split(list, ",")
	if len(parts) < 1 || len(parts) > 2 {
		return fmt.Errorf("want 1 or 2 streams, got %d", len(parts))
	}
	machine := smt.New(core.StreamMachine())
	defer machine.Close()
	ov.attach(machine)
	for i, p := range parts {
		k, err := streams.ParseKind(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		sp := streams.Spec{Kind: k, ILP: streams.ILP(ilp), Base: streams.DisjointBase(i)}
		if err := sp.Validate(); err != nil {
			return err
		}
		machine.LoadProgram(i, streams.Build(sp))
	}
	if _, err := machine.Run(window); err != nil {
		return err
	}
	fmt.Fprintf(out, "streams %s at ILP %d, %d-cycle window\n\n", list, ilp, window)
	dump(out, machine)
	return ov.flush(machine, fmt.Sprintf("stream:%s/ilp%d", list, ilp), false)
}

func dump(out io.Writer, m *smt.Machine) {
	fmt.Fprint(out, m.Counters().Snapshot().Format())
	for tid := 0; tid < smt.NumContexts; tid++ {
		ts := m.Hierarchy().Thread(tid)
		if ts.Accesses == 0 {
			continue
		}
		fmt.Fprintf(out, "\ncpu%d memory: %d accesses, %d L1 misses, %d L2 misses (%d reads)\n",
			tid, ts.Accesses, ts.L1Misses, ts.L2Misses, ts.L2ReadMisses)
		c := m.Counters()
		instr := c.Get(perfmon.InstrRetired, tid)
		if cyc := c.Get(perfmon.Cycles, tid); cyc > 0 && instr > 0 {
			fmt.Fprintf(out, "cpu%d CPI: %.3f (IPC %.2f)\n", tid,
				float64(cyc)/float64(instr), float64(instr)/float64(cyc))
		}
	}
}

// Command perfbench is the repository benchmark. One run measures one
// seeded workload for a fixed time and prints every metric by name with
// its unit, the host it ran on, the outcome of its output checks, and, as
// its last line, a JSON result:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is traced (spans, CPU profile) and the metrics are the per-layer ones.
// Workloads: streams, kernels, jobs-smtd, jobs-cluster, or all of them in
// turn. See README.md beside this file for what each measures and why.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload streams --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner, in the order "all"
// runs them.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"streams", runStreams},
	{"kernels", runKernels},
	{"jobs-smtd", runJobsSMTD},
	{"jobs-cluster", runJobsCluster},
}

// endToEnd lists the end-to-end metrics, printed and reported with
// -trace 0, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cells_per_s", "1/s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"jobs_per_s", "1/s"},
	{"warm_p50_ms", "ms"},
	{"warm_tail_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"cold_tail_ms", "ms"},
}

// perLayer lists the per-layer metrics every workload reports in its
// JSON result with -trace 1. Layers only some workloads exercise (the
// service, store, checkpoint and cluster seams, the simulator's exact
// counters) are printed as "layer" lines and kept in the run's report
// file, but not put in the JSON result.
var perLayer = []struct{ name, unit string }{
	{"prof.smt.issue_pct", "%"},
	{"prof.smt.allocate_pct", "%"},
	{"prof.smt.retire_pct", "%"},
	{"prof.smt.fastforward_pct", "%"},
	{"prof.trace_pct", "%"},
	{"prof.perfmon_pct", "%"},
	{"prof.mem_pct", "%"},
	{"prof.gc_pct", "%"},
	{"smt.host_ns_per_cycle", "ns"},
	{"experiments.cell_ms.p50", "ms"},
	{"runtime.alloc_bytes_per_cell", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runner.cache_hit_ratio", "ratio"},
	{"jobs.unattributed_ms", "ms"},
}

// A run builds its set-up from scratch at least minSetups times, and
// more (up to maxSetups) while the builds have taken under setupBudget,
// so a set-up of a few milliseconds is still a median of many; setup_s is
// the median. A jobs set-up is ≈0.4 s of simulation on every core, which
// a burst of host CPU steal slows by half or more; five of them keep
// one burst from setting the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 500 * time.Millisecond
)

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // repository checkout: goldens are read from it
	out      string // artefact directory under the checkout
	tr       *tracer

	attempted, failed int
	digest            string // sim_digest of the run's simulated results
	checks            []check
	e2e               map[string]float64
	layers            map[string]float64
	units             map[string]string
	notes             []string
}

type check struct {
	name string
	err  error
}

func (b *bench) check(name string, err error) { b.checks = append(b.checks, check{name, err}) }

// layer records a per-layer value with its unit.
func (b *bench) layer(name string, v float64, unit string) {
	b.layers[name] = v
	b.units[name] = unit
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) correct() bool {
	for _, c := range b.checks {
		if c.err != nil {
			return false
		}
	}
	return len(b.checks) > 0
}

// setup builds the workload's set-up repeatedly, tearing each down
// before the next, records the median time as setup_s, and returns the
// teardown of the last build, which the run then uses.
func (b *bench) setup(build func() (teardown func(), err error)) (func(), error) {
	var times []float64
	var teardown func()
	var spent time.Duration
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		if teardown != nil {
			teardown()
		}
		start := time.Now()
		td, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		teardown = td
	}
	sort.Float64s(times)
	b.e2e["setup_s"] = median(times)
	return teardown, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "streams, kernels, jobs-smtd, jobs-cluster, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 traces the run and reports per-layer metrics")
	root := fs.String("root", ".", "repository checkout (goldens are read from it; artefacts go under its .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *root, stdout, stderr)
	}
	wl := -1
	for i, w := range workloads {
		if *name == w.name {
			wl = i
		}
	}
	if wl < 0 {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	out := filepath.Join(*root, ".bench_build", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host, err := fingerprint(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: workloads[wl].name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, root: *root, out: out,
		e2e: map[string]float64{}, layers: map[string]float64{}, units: map[string]string{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d\n", b.workload, b.seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host %s\n", host)
	if err := workloads[wl].run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if err := b.finish(stdout, host); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if !b.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in a process of its own, so
// that each reports its own peak RSS rather than the largest of the
// workloads before it. It fails if any of them does.
func runAll(seed int64, seconds float64, trace int, root string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-root", root)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			code = 1
		}
	}
	return code
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish prints the run's report, saves it under the artefact directory,
// and prints the JSON result as the last line.
func (b *bench) finish(w io.Writer, host string) error {
	if _, ok := b.e2e["peak_rss_mb"]; !ok {
		b.e2e["peak_rss_mb"] = peakRSSMB()
	}
	var base *savedReport
	if b.traced {
		path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
		if err := b.tr.write(path, map[string]string{"workload": b.workload, "seed": fmt.Sprint(b.seed)}); err != nil {
			return err
		}
		b.note("artefacts %s (open in Perfetto) and %s", path, strings.TrimSuffix(path, ".trace.json")+".cpu.pprof")
		var why string
		if base, why = b.untracedReport(host); base != nil {
			var err error
			if base.SimDigest != b.digest {
				err = fmt.Errorf("traced %s, untraced %s", b.digest, base.SimDigest)
			}
			b.check("traced sim_digest equal to the untraced run's of the same seed, host and source", err)
		} else {
			b.note("sim_digest not compared with an untraced run: %s", why)
		}
	}
	res := resultOut{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}

	fmt.Fprintf(w, "requests attempted=%d failed=%d fail_ratio=%.6f\n", b.attempted, b.failed, ratio(float64(b.failed), float64(b.attempted)))
	if !b.traced {
		for _, m := range endToEnd {
			v, ok := b.e2e[m.name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", m.name)
			}
			fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, v, m.unit)
			res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
	} else {
		names := make([]string, 0, len(b.layers))
		for n := range b.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "layer %s %.6g %s\n", n, b.layers[n], b.units[n])
		}
		for _, m := range perLayer {
			v, ok := b.layers[m.name]
			if !ok {
				return fmt.Errorf("layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
		for _, m := range endToEnd {
			fmt.Fprintf(w, "traced %s %.6g %s\n", m.name, b.e2e[m.name], m.unit)
		}
		b.overhead(w, base)
	}
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	for _, c := range b.checks {
		if c.err != nil {
			fmt.Fprintf(w, "check %s: FAIL: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "check %s: ok\n", c.name)
		}
	}
	if err := b.save(host); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// savedReport is the per-run report file kept under .bench_build/out.
type savedReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Host      string             `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	SimDigest string             `json:"sim_digest"`
	Notes     []string           `json:"notes"`
}

func (b *bench) reportPath(traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(b.out, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, t))
}

func (b *bench) save(host string) error {
	data, err := json.MarshalIndent(savedReport{
		Workload: b.workload, Seed: b.seed, Traced: b.traced, Host: host, Correct: b.correct(),
		Attempted: b.attempted, Failed: b.failed, EndToEnd: b.e2e, Layers: b.layers, SimDigest: b.digest, Notes: b.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.reportPath(b.traced), data, 0o644)
}

// untracedReport loads the saved untraced report of this run's
// workload and seed if it was measured on the same host and source;
// otherwise it says why there is none.
func (b *bench) untracedReport(host string) (*savedReport, string) {
	data, err := os.ReadFile(b.reportPath(false))
	if err != nil {
		return nil, fmt.Sprintf("no untraced report for seed %d (run it with --trace 0 first)", b.seed)
	}
	var base savedReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Sprintf("unreadable untraced report: %v", err)
	}
	if base.Host != host {
		return nil, fmt.Sprintf("the untraced report for seed %d is from another host or source (run it with --trace 0 again)", b.seed)
	}
	if base.SimDigest == "" {
		return nil, "the untraced report has no sim_digest (run it with --trace 0 again)"
	}
	return &base, ""
}

// overhead compares this traced run's end-to-end numbers with base, the
// untraced run of the same workload and seed, host and source.
func (b *bench) overhead(w io.Writer, base *savedReport) {
	if base == nil {
		fmt.Fprintln(w, "overhead: not measured (see the sim_digest note)")
		return
	}
	for _, m := range endToEnd {
		u, t := base.EndToEnd[m.name], b.e2e[m.name]
		fmt.Fprintf(w, "overhead %s untraced=%.6g traced=%.6g change=%+.1f%%\n", m.name, u, t, 100*ratio(t-u, u))
	}
}

// fingerprint identifies the host and the code a run measured: numbers
// from different hosts or sources must never look comparable.
func fingerprint(root string) (string, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(root), src), nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout that is not a git
// repository reports "none" and is identified by its source digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout
// (names and contents, in path order), so two runs state whether they
// measured the same code even where there is no commit to name.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

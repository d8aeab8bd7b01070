package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileShares lists the stacks of a CPU profile file with the Go
// toolchain's pprof (the toolchain run.sh builds the benchmark with) and
// returns, for each named predicate, the percentage of samples with at
// least one stack frame the predicate accepts: the cumulative share of
// CPU time spent in (or under) those functions.
func profileShares(path string, preds map[string]func(fn string) bool) (map[string]float64, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errOut.String()))
	}
	return tracesShares(out.String(), preds)
}

// tracesShares computes the shares from `go tool pprof -traces` output:
// a header, then one block per stack, each opened by a dashed separator
// line; a block's first line is the sample count followed by the leaf
// frame, and every further line one caller frame.
func tracesShares(text string, preds map[string]func(fn string) bool) (map[string]float64, error) {
	matched := make(map[string]int64, len(preds))
	var total, count int64
	var frames []string
	flush := func() {
		total += count
		for name, pred := range preds {
			for _, fn := range frames {
				if pred(fn) {
					matched[name] += count
					break
				}
			}
		}
		count, frames = 0, frames[:0]
	}
	inBlock, atHead := false, false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlock, atHead = true, true
			continue
		case !inBlock || line == "":
			continue
		case atHead:
			n, rest, ok := strings.Cut(line, " ")
			v, err := strconv.ParseInt(n, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("profile traces: no sample count in %q", line)
			}
			count, line, atHead = v, strings.TrimSpace(rest), false
		}
		frames = append(frames, strings.TrimSuffix(line, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	out := make(map[string]float64, len(preds))
	for name := range preds {
		out[name] = 100 * ratio(float64(matched[name]), float64(total))
	}
	return out, nil
}

// profilePredicates names the CPU-profile shares the traced run reports:
// the simulator's pipeline stages and fast-forward, and the packages the
// per-cycle loop calls into, plus the garbage collector.
func profilePredicates() map[string]func(string) bool {
	method := func(name string) func(string) bool {
		full := "smtexplore/internal/smt.(*Machine)." + name
		return func(fn string) bool { return fn == full }
	}
	pkg := func(path string) func(string) bool {
		prefix := "smtexplore/internal/" + path + "."
		return func(fn string) bool { return strings.HasPrefix(fn, prefix) }
	}
	return map[string]func(string) bool{
		"prof.smt.issue_pct":       method("issue"),
		"prof.smt.allocate_pct":    method("allocate"),
		"prof.smt.retire_pct":      method("retire"),
		"prof.smt.fastforward_pct": method("ffSkip"),
		"prof.trace_pct":           pkg("trace"),
		"prof.perfmon_pct":         pkg("perfmon"),
		"prof.mem_pct":             pkg("mem"),
		"prof.gc_pct": func(fn string) bool {
			return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
		},
	}
}

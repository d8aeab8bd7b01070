package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// phaseStats is what the process spent during a run's timed phase.
type phaseStats struct {
	elapsed    time.Duration
	allocBytes uint64
	gcPause    time.Duration
}

// cpuTicks reads the host's total and stolen CPU time from /proc/stat
// (ok is false where there is none).
func cpuTicks() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// timed runs the timed phase after a full collection (so every run
// starts from the same heap state), measuring wall time, allocation and
// GC pause. A traced run also profiles the phase's CPU, writes the
// profile, and reports its layer shares.
func (b *bench) timed(fn func()) (phaseStats, error) {
	var prof bytes.Buffer
	runtime.GC()
	if b.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return phaseStats{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	total0, steal0, ok0 := cpuTicks()
	start := time.Now()
	fn()
	ps := phaseStats{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	if total1, steal1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		// Time the hypervisor gave to other guests: a noisy host shows
		// here before it shows as a slow run.
		b.note("host steal %.1f%% of CPU time during the timed phase", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	ps.allocBytes = after.TotalAlloc - before.TotalAlloc
	ps.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if !b.traced {
		return ps, nil
	}
	pprof.StopCPUProfile()
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.cpu.pprof", b.workload, b.seed))
	if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
		return ps, err
	}
	shares, err := profileShares(path, profilePredicates())
	if err != nil {
		return ps, err
	}
	for name, v := range shares {
		b.layer(name, v, "%")
	}
	return ps, nil
}

// runtimeLayers reports the phase's allocation per cell and GC pause.
func (b *bench) runtimeLayers(ps phaseStats, cells int) {
	b.layer("runtime.alloc_bytes_per_cell", ratio(float64(ps.allocBytes), float64(cells)), "B")
	b.layer("runtime.gc_pause_ms", float64(ps.gcPause)/1e6, "ms")
}

// latencyMetrics reports a request class's median and tail as the
// end-to-end metrics <class>_p50_ms and <class>_tail_ms, noting which
// percentile the tail is and how many samples it rests on.
func (b *bench) latencyMetrics(class string, l latencies) {
	s := l.sorted()
	b.e2e[class+"_p50_ms"] = finite(median(s))
	t, ok := tailOf(s)
	if !ok {
		// Too few samples for the tail rule: report the maximum, and say so.
		if len(s) > 0 {
			b.e2e[class+"_tail_ms"] = finite(s[len(s)-1])
		}
		b.note("tail %s_tail_ms is the maximum of only %d samples (the tail rule needs %d)", class, len(s), tailBeyond+1)
		return
	}
	b.e2e[class+"_tail_ms"] = finite(t.Value)
	b.note("tail %s_tail_ms is p%.2f of %d samples (%d beyond)", class, t.Pct, t.N, t.Beyond)
}

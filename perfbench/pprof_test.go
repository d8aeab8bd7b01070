package main

import (
	"math"
	"testing"
)

// tracesSample is `go tool pprof -traces -sample_index=samples` output
// for three stacks of 6, 3 and 1 samples.
const tracesSample = `File: perfbench
Type: samples
Duration: 1s, Total samples = 10
-----------+-------------------------------------------------------
         6   smtexplore/internal/smt.(*Machine).allocExec
             smtexplore/internal/smt.(*Machine).allocate
             smtexplore/internal/smt.(*Machine).Run (inline)
             main.main
-----------+-------------------------------------------------------
         3   smtexplore/internal/perfmon.(*Counters).Inc (inline)
             smtexplore/internal/smt.(*Machine).retire
             main.runSim[go.shape.struct { Specs []smtexplore/internal/streams.Spec; Window uint64 },go.shape.[]float64]
-----------+-------------------------------------------------------
         1   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestTracesShares(t *testing.T) {
	got, err := tracesShares(tracesSample, profilePredicates())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"prof.smt.allocate_pct": 60, // a caller frame counts
		"prof.smt.retire_pct":   30,
		"prof.perfmon_pct":      30, // an inlined leaf counts
		"prof.smt.issue_pct":    0,
		"prof.gc_pct":           10,
		"prof.mem_pct":          0,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got[name], w)
		}
	}
}

func TestTracesSharesRejectsMissingCount(t *testing.T) {
	bad := "-----------+----\n   smtexplore/internal/smt.(*Machine).issue\n"
	if _, err := tracesShares(bad, profilePredicates()); err == nil {
		t.Fatal("a block without a sample count was accepted")
	}
}

package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"smtexplore/internal/service"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{11, 100.0 / 11}, {20, 50}, {100, 90}, {1000, 99}} {
		got, ok := tailOf(seq(tc.n))
		// On 1..n the quantile estimate at p is p·(n+1).
		want := tc.pct / 100 * float64(tc.n+1)
		if !ok || math.Abs(got.Pct-tc.pct) > 1e-9 || got.Beyond != tailBeyond || got.N != tc.n || math.Abs(got.Value-want) > max(0.05*want, 0.6) {
			t.Errorf("n=%d: tail %+v ok=%v, want p%v ≈ %v with %d beyond", tc.n, got, ok, tc.pct, want, tailBeyond)
		}
	}
	if _, ok := tailOf(seq(10)); ok {
		t.Error("10 samples cannot have a tail with 10 beyond it")
	}
}

func TestQuantileEstimate(t *testing.T) {
	if got := median(seq(99)); math.Abs(got-50) > 1e-6 {
		t.Errorf("median of 1..99 = %v, want 50", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	// Two clusters with the median rank at their boundary: the estimate
	// lies between them and barely moves when one sample crosses over.
	a := append(append([]float64{}, repeat(10, 50)...), repeat(100, 50)...)
	b := append(append([]float64{}, repeat(10, 49)...), repeat(100, 51)...)
	ma, mb := median(a), median(b)
	if ma <= 10 || ma >= 100 || math.Abs(ma-mb) > 0.2*ma {
		t.Errorf("medians %v and %v across a cluster boundary", ma, mb)
	}
}

func repeat(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// A failed request misses every limit: failures sort above every real
// latency and push the estimates beyond every real latency once they
// reach the estimated rank, while staying finite in reports.
func TestFailuresCountAgainstLatency(t *testing.T) {
	var l latencies
	for i := 1; i <= 90; i++ {
		l.add(float64(i))
	}
	clean, _ := tailOf(l.sorted())
	for i := 0; i < 10; i++ {
		l.fail()
	}
	s := l.sorted()
	if !math.IsInf(s[len(s)-1], 1) {
		t.Fatal("failures must sort last")
	}
	tl, ok := tailOf(s)
	if !ok || tl.Value <= 90 || tl.Value > failedLatencyMS {
		t.Fatalf("tail with 10 failures of 100 = %v, want beyond every success and finite", tl.Value)
	}
	if tl.Value <= clean.Value {
		t.Fatalf("failures lowered the tail: %v <= %v", tl.Value, clean.Value)
	}
	var all latencies
	for i := 0; i < 5; i++ {
		all.add(1)
		all.fail()
	}
	all.fail()
	if got := median(all.sorted()); got < failedLatencyMS/2 {
		t.Fatalf("median with a failed majority = %v, want near the failure sentinel", got)
	}
}

// Refused and failed jobs count as attempted and failed, with latencies
// beyond every limit; so does a result unlike its reference.
func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	ref := service.CellResult{Label: "x", State: service.CellDone, CPI: []float64{1.5}}
	good, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	cells := []json.RawMessage{good}
	outs := []outcome{
		{job: job{Warm: true}, total: 2e6, cells: cells},
		{job: job{Warm: true}, total: 1e6, err: errors.New("submit refused: HTTP 429")},
		{job: job{Kind: "cold-stream"}, total: 5e6, err: errors.New("job c1 ended failed")},
		{job: job{Kind: "cold-stream"}, total: 4e6, cells: []json.RawMessage{[]byte(`{"index":0}`)}},
		{job: job{Kind: "cold-stream", Specs: []service.CellSpec{{Type: service.TypeStream, Window: 7}}}, total: 3e6, cells: cells},
	}
	want := map[int][]service.CellResult{}
	for i := range outs {
		want[i] = []service.CellResult{ref}
	}
	tl := tallyJobs(outs, want, len(outs))
	if tl.failed != 3 || tl.mismatches != 1 || tl.coldDone != 1 || tl.simCycles != 7 {
		t.Fatalf("failed=%d mismatches=%d coldDone=%d simCycles=%v, want 3, 1, 1, 7", tl.failed, tl.mismatches, tl.coldDone, tl.simCycles)
	}
	if len(tl.warm) != 2 || len(tl.cold) != 3 || len(tl.lat) != len(outs) {
		t.Fatalf("classes warm=%d cold=%d lat=%d, want 2, 3, %d", len(tl.warm), len(tl.cold), len(tl.lat), len(outs))
	}
	if got := tl.cold.sorted(); !math.IsInf(got[1], 1) || !math.IsInf(got[2], 1) {
		t.Fatalf("cold latencies %v: the two failures must sort last, as +Inf", got)
	}
	if len(tl.submit) != 2 {
		t.Fatalf("stage samples from %d jobs, want only the 2 that succeeded", len(tl.submit))
	}
}

package compile

import (
	"testing"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/spec"
)

func mustParse(t *testing.T, in string) *spec.Spec {
	t.Helper()
	s, err := spec.Parse([]byte(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestCompileFig1Grid(t *testing.T) {
	s := mustParse(t, `{"name":"f1","sweeps":[{"name":"fig1","kind":"stream",
		"streams":["fadd","fmul","fadd-mul","iadd","iload"],"ilp":["min","med","max"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// 5 kinds × 3 ILP × {1,2} threads, all distinct.
	if len(p.Cells) != 30 || p.Requested != 30 {
		t.Fatalf("cells = %d (requested %d), want 30", len(p.Cells), p.Requested)
	}
	// Every cell must carry the exact key the Figure 1 harness caches
	// under — that identity is the whole dedupe story.
	idx := p.Tables[0].Cells[1] // Fig1Grid order: fadd/min solo, fadd/min duo, …
	want := experiments.StreamCellKey(experiments.StreamMachineConfig(), []streams.Spec{
		{Kind: streams.FAddS, ILP: streams.MinILP},
		{Kind: streams.FAddS, ILP: streams.MinILP},
	}, experiments.StreamWindowCycles)
	if p.Cells[idx].Key != want {
		t.Errorf("fadd/min duo key mismatch with the legacy harness key")
	}
	if p.Cells[idx].Cost != experiments.StreamWindowCycles {
		t.Errorf("stream cell cost = %d, want the window", p.Cells[idx].Cost)
	}
	if got := p.Cells[idx].Spec; got.Type != service.TypeStream || len(got.Streams) != 2 {
		t.Errorf("cell spec = %+v", got)
	}
}

func TestCompileDedupesAcrossSweeps(t *testing.T) {
	// The fig2 diagonal duos and solos overlap the fig1 grid cells for
	// the same kinds; compiling both must share cells.
	s := mustParse(t, `{"name":"x","sweeps":[
		{"name":"a","kind":"stream","streams":["fadd","fmul"],"ilp":["min"]},
		{"name":"b","kind":"stream","table":"fig2","streams":["fadd","fmul"],"ilp":["min"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Sweep a: 2×1×2 = 4 cells (2 solos + 2 self-duos).
	// Sweep b: 2 solos (dup) + 4 duos, of which the 2 diagonal ones dup.
	if p.Requested != 10 {
		t.Errorf("requested = %d, want 10", p.Requested)
	}
	if len(p.Cells) != 6 {
		t.Errorf("unique cells = %d, want 6", len(p.Cells))
	}
	// Grid order: a is fadd solo, fadd duo, fmul solo, fmul duo; b is
	// the fadd and fmul solos, then fadd+fadd, fadd+fmul, fmul+fadd,
	// fmul+fmul.
	if p.Tables[0].Cells[1] != p.Tables[1].Cells[2] {
		t.Errorf("fig1 duo and fig2 diagonal compiled to different cells")
	}
	if p.Tables[0].Cells[0] != p.Tables[1].Cells[0] {
		t.Errorf("fig1 solo and fig2 solo compiled to different cells")
	}
}

func TestCompileKernelSweep(t *testing.T) {
	s := mustParse(t, `{"name":"k","sweeps":[{"name":"mm","kind":"kernel",
		"kernels":["mm"],"sizes":[32],"modes":["serial","tlp-fine"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(p.Cells))
	}
	want, err := experiments.KernelCellKey("mm", 32, kernels.TLPFine)
	if err != nil {
		t.Fatal(err)
	}
	idx := p.Tables[0].Cells[1] // KernelGrid order: 32/serial, 32/tlp-fine
	if p.Cells[idx].Key != want {
		t.Errorf("kernel key mismatch with the legacy harness key")
	}
}

func TestCompileKernelDefaultModes(t *testing.T) {
	s := mustParse(t, `{"name":"k","sweeps":[{"name":"mm","kind":"kernel",
		"kernels":["mm"],"sizes":[32]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	modes, err := experiments.KernelModes("mm", 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != len(modes) {
		t.Errorf("default-mode sweep has %d cells, kernel implements %d modes", len(p.Cells), len(modes))
	}
}

func TestCompileHarness(t *testing.T) {
	s := mustParse(t, `{"name":"h","sweeps":[
		{"name":"a","kind":"harness","harnesses":["table1","fig1"]},
		{"name":"b","kind":"harness","harnesses":["table1"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.Cells) != 2 || p.Requested != 3 {
		t.Errorf("cells = %d requested = %d, want 2/3 (table1 deduped)", len(p.Cells), p.Requested)
	}
	if p.Cells[0].Key != "" {
		t.Errorf("harness cells must not claim a store key")
	}
}

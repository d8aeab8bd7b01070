package streams

import (
	"strings"
	"testing"

	"smtexplore/internal/isa"
	"smtexplore/internal/trace"
)

func TestKindNamesAndPredicates(t *testing.T) {
	for _, k := range All() {
		if k.String() == "" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if !ILoadS.IsMem() || !FStoreS.IsMem() || IAddS.IsMem() || FAddMulS.IsMem() {
		t.Error("IsMem misclassifies")
	}
	if !FAddS.IsFP() || !FAddMulS.IsFP() || IAddS.IsFP() || IStoreS.IsFP() {
		t.Error("IsFP misclassifies")
	}
	if len(IntKinds()) != 6 || len(FPKinds()) != 6 {
		t.Error("figure-2 kind sets wrong size")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Kind: FAddS, ILP: MedILP}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{Kind: Kind(99), ILP: MedILP}).Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
	if err := (Spec{Kind: FAddS, ILP: 4}).Validate(); err == nil {
		t.Error("ILP 4 accepted")
	}
}

func TestBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build(invalid) did not panic")
		}
	}()
	Build(Spec{Kind: FAddS, ILP: 2})
}

// firstN pulls n instructions from an endless stream.
func firstN(p trace.Program, n int) []isa.Instr {
	return trace.Collect(trace.Limit(p, uint64(n)))
}

func TestArithStreamOpsAndILP(t *testing.T) {
	for _, k := range []Kind{IAddS, ISubS, IMulS, IDivS, FAddS, FSubS, FMulS, FDivS} {
		for _, ilp := range Levels() {
			ins := firstN(Build(Spec{Kind: k, ILP: ilp}), 24)
			want := arithOp(k)
			tgts := map[isa.Reg]bool{}
			srcs := map[isa.Reg]bool{}
			for _, in := range ins {
				if in.Op != want {
					t.Fatalf("%v: op = %v, want %v", k, in.Op, want)
				}
				tgts[in.Dst] = true
				srcs[in.Src1] = true
				srcs[in.Src2] = true
			}
			if len(tgts) != int(ilp) {
				t.Errorf("%v/%v: %d distinct targets, want %d", k, ilp, len(tgts), ilp)
			}
			for r := range tgts {
				if srcs[r] {
					t.Errorf("%v/%v: register %v in both S and T", k, ilp, r)
				}
			}
			// Reuse period: instruction i and i+|T| share the target.
			for i := 0; i+int(ilp) < len(ins); i++ {
				if ins[i].Dst != ins[i+int(ilp)].Dst {
					t.Errorf("%v/%v: target not reused with period %d", k, ilp, ilp)
					break
				}
			}
		}
	}
}

func TestMixedStreamAlternates(t *testing.T) {
	ins := firstN(Build(Spec{Kind: FAddMulS, ILP: MaxILP}), 16)
	for i, in := range ins {
		want := isa.FAdd
		if i%2 == 1 {
			want = isa.FMul
		}
		if in.Op != want {
			t.Fatalf("instruction %d op = %v, want %v (circular fadd/fmul mix)", i, in.Op, want)
		}
	}
}

func TestMemStreamWalksSequentially(t *testing.T) {
	base := DisjointBase(0)
	ins := firstN(Build(Spec{Kind: FLoadS, ILP: MaxILP, Base: base}), 100)
	for i, in := range ins {
		if in.Op != isa.Load {
			t.Fatalf("op = %v, want load", in.Op)
		}
		if in.Dst.Bank() != isa.BankFP {
			t.Fatalf("fload target bank = %v", in.Dst.Bank())
		}
		wantAddr := base + uint64(i)*elemStride
		if in.Addr != wantAddr {
			t.Fatalf("addr[%d] = %#x, want %#x", i, in.Addr, wantAddr)
		}
	}
}

func TestMemStreamMissRateApprox3Percent(t *testing.T) {
	// One access per elemStride bytes, 64-byte lines → one new line per
	// 64/elemStride accesses.
	perLine := 64 / elemStride
	rate := 1.0 / float64(perLine)
	if rate < 0.025 || rate > 0.04 {
		t.Errorf("designed miss rate %.3f not ≈3%%", rate)
	}
}

func TestIntStoreUsesIntSource(t *testing.T) {
	ins := firstN(Build(Spec{Kind: IStoreS, ILP: MinILP, Base: DisjointBase(1)}), 4)
	for _, in := range ins {
		if in.Op != isa.Store || in.Src1.Bank() != isa.BankInt {
			t.Fatalf("istore instruction %v malformed", in)
		}
	}
}

func TestMemStreamWraps(t *testing.T) {
	base := DisjointBase(2)
	n := VectorBytes/elemStride + 5
	ins := firstN(Build(Spec{Kind: ILoadS, ILP: MinILP, Base: base}), n)
	last := ins[len(ins)-1]
	if last.Addr >= base+VectorBytes {
		t.Fatalf("walk did not wrap: %#x beyond vector end", last.Addr)
	}
	if ins[VectorBytes/elemStride].Addr != base {
		t.Fatalf("wrap address = %#x, want %#x", ins[VectorBytes/elemStride].Addr, base)
	}
}

func TestDisjointBases(t *testing.T) {
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			a, b := DisjointBase(i), DisjointBase(j)
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi < lo+VectorBytes {
				t.Fatalf("bases %d and %d overlap", i, j)
			}
		}
	}
}

func TestAllStreamsValidateAgainstISA(t *testing.T) {
	for _, k := range All() {
		for _, ilp := range Levels() {
			ins := firstN(Build(Spec{Kind: k, ILP: ilp, Base: DisjointBase(0)}), 32)
			if len(ins) != 32 {
				t.Fatalf("%v/%v truncated", k, ilp)
			}
			for _, in := range ins {
				if err := in.Validate(); err != nil {
					t.Fatalf("%v/%v: %v", k, ilp, err)
				}
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range All() {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"", "warp", "FADD", "fadd-"} {
		if _, err := ParseKind(bad); err == nil || !strings.Contains(err.Error(), "unknown stream kind") {
			t.Errorf("ParseKind(%q) = %v, want an unknown-stream-kind error", bad, err)
		}
	}
}

func TestParseILP(t *testing.T) {
	for name, want := range map[string]ILP{
		"": MaxILP, "max": MaxILP, "6": MaxILP, "maxILP": MaxILP,
		"med": MedILP, "3": MedILP, "medILP": MedILP,
		"min": MinILP, "1": MinILP, "minILP": MinILP,
	} {
		if got, err := ParseILP(name); err != nil || got != want {
			t.Errorf("ParseILP(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"huge", "2", "ILPmax"} {
		if _, err := ParseILP(bad); err == nil || !strings.Contains(err.Error(), "unknown ILP degree") {
			t.Errorf("ParseILP(%q) = %v, want an unknown-ILP error", bad, err)
		}
	}
}

package kernels

import (
	"strings"
	"testing"
)

func TestModeNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range AllModes() {
		name := m.String()
		if name == "" || strings.HasPrefix(name, "mode(") {
			t.Fatalf("mode %d unnamed", m)
		}
		if seen[name] {
			t.Fatalf("duplicate mode name %q", name)
		}
		seen[name] = true
		if !m.Valid() {
			t.Fatalf("mode %v invalid", m)
		}
	}
	if len(AllModes()) != NumModes {
		t.Fatalf("AllModes returned %d, want %d", len(AllModes()), NumModes)
	}
	if Mode(99).Valid() {
		t.Error("out-of-range mode valid")
	}
	if got := Mode(99).String(); !strings.HasPrefix(got, "mode(") {
		t.Errorf("out-of-range mode name %q", got)
	}
}

func TestPaperModeNames(t *testing.T) {
	// The names are the paper's labels; the harness output depends on them.
	want := map[Mode]string{
		Serial:         "serial",
		TLPFine:        "tlp-fine",
		TLPCoarse:      "tlp-coarse",
		TLPPfetch:      "tlp-pfetch",
		TLPPfetchWork:  "tlp-pfetch+work",
		SerialPrefetch: "serial+pf",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), name)
		}
	}
}

func TestErrUnsupportedMode(t *testing.T) {
	err := ErrUnsupportedMode{Kernel: "lu", Mode: TLPFine}
	if !strings.Contains(err.Error(), "lu") || !strings.Contains(err.Error(), "tlp-fine") {
		t.Errorf("error message uninformative: %q", err.Error())
	}
}

func TestTidRoles(t *testing.T) {
	if WorkerTid == HelperTid {
		t.Error("worker and helper share a context")
	}
	if WorkerTid != 0 || HelperTid != 1 {
		t.Error("paper binding: worker on logical CPU 0, helper on 1")
	}
}

func TestParseMode(t *testing.T) {
	want := map[string]Mode{"": Serial}
	for _, m := range AllModes() {
		want[m.String()] = m
	}
	for name, m := range want {
		if got, err := ParseMode(name); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, m)
		}
	}
	for _, bad := range []string{"warp", "Serial", "tlp"} {
		if _, err := ParseMode(bad); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("ParseMode(%q) = %v, want an unknown-mode error", bad, err)
		}
	}
}

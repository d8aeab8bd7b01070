package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
)

const miniStudy = `{"name":"mini","sweeps":[{"name":"mini","kind":"stream",
	"streams":["fadd","iload"],"ilp":["min"],"window":20000}]}`

func writeSpec(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "mini.study.json")
	if err := os.WriteFile(path, []byte(miniStudy), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStudyRunLocalAndReadBack(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	out := filepath.Join(dir, "out")

	got, err := ctl(t, "unused:0", "study", "run", "-f", spec, "-dir", out)
	if err != nil {
		t.Fatalf("study run: %v", err)
	}
	for _, want := range []string{"study mini: done", "4 grid points -> 4 unique", "simulated: 4"} {
		if !strings.Contains(got, want) {
			t.Errorf("run output %q lacks %q", got, want)
		}
	}

	// Warm re-run over the implicit <out>/mini/store: nothing simulated.
	got, err = ctl(t, "unused:0", "study", "run", "-f", spec, "-dir", out)
	if err != nil {
		t.Fatalf("warm study run: %v", err)
	}
	if !strings.Contains(got, "simulated: 0") || !strings.Contains(got, "4 warm") {
		t.Errorf("warm run output %q", got)
	}

	got, err = ctl(t, "unused:0", "study", "status", "-dir", out, "mini")
	if err != nil {
		t.Fatalf("study status: %v", err)
	}
	if !strings.Contains(got, `"state": "done"`) || !strings.Contains(got, `"simulated": 0`) {
		t.Errorf("status output %q", got)
	}

	got, err = ctl(t, "unused:0", "study", "report", "-dir", out, "mini")
	if err != nil {
		t.Fatalf("study report: %v", err)
	}
	if !strings.HasPrefix(got, "# Study report — mini") {
		t.Errorf("report output starts %q", got[:min(len(got), 40)])
	}

	// Table artifact exists where the summary points.
	if _, err := os.Stat(filepath.Join(out, "mini", "tables", "mini.txt")); err != nil {
		t.Errorf("persisted table: %v", err)
	}
}

func TestStudyRunDaemonBackend(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := startDaemon(t, service.Config{Workers: 2, Cache: runner.NewCache().WithTier(st), Store: st})
	dir := t.TempDir()
	spec := writeSpec(t, dir)

	got, err := ctl(t, addr, "study", "run", "-f", spec, "-dir", filepath.Join(dir, "out"), "-via", "daemon")
	if err != nil {
		t.Fatalf("study run -via daemon: %v", err)
	}
	if !strings.Contains(got, "backend daemon") || !strings.Contains(got, "simulated: 4") {
		t.Errorf("daemon run output %q", got)
	}
}

func TestStudyUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"study"},
		{"study", "frobnicate"},
		{"study", "run"},
		{"study", "run", "-f", "no-such-file.json"},
		{"study", "status"},
		{"study", "report", "-dir", t.TempDir(), "nope"},
	} {
		if _, err := ctl(t, "unused:0", args...); err == nil {
			t.Errorf("%v: expected an error", args)
		}
	}
}

// A daemon-backed study runs through smtctl's own client: -tenant
// reaches the daemon, so the study's job and cells are accounted to
// that tenant rather than the default one.
func TestStudyRunDaemonCarriesTenant(t *testing.T) {
	addr, svc := flakyDaemon(t, service.Config{Workers: 2}, func(h http.Handler) http.Handler { return h })
	dir := t.TempDir()
	spec := writeSpec(t, dir)

	if _, err := ctl(t, addr, "-tenant", "lab", "study", "run", "-f", spec, "-dir", filepath.Join(dir, "out"), "-via", "daemon"); err != nil {
		t.Fatalf("study run -via daemon -tenant lab: %v", err)
	}
	row, ok := svc.Snapshot().Tenants["lab"]
	if !ok || row.JobsAdmitted != 1 || row.CellsDone != 4 {
		t.Fatalf("tenant lab accounting = %+v (present %v), want 1 job and 4 cells", row, ok)
	}
}

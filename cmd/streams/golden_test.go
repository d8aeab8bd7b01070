package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the exact text output of the figure CLIs: any
// change to the timing model, the harness or the formatter — intended or
// not — shows up as a diff. Regenerate with:
//
//	go test ./cmd/streams -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestGoldenFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig1", buf.Bytes())
}

// Usage errors (exit status 2) are reported before any simulation runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9"},
		{"-fig", "2d"},
		{"-workers", "0"},
		{"-no-such-flag"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", args, buf.String())
		}
	}
}

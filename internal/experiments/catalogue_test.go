package experiments

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"smtexplore/internal/kernels"
	"smtexplore/internal/runner"
)

func TestCatalogueNames(t *testing.T) {
	want := []string{"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5cg", "fig5bt",
		"table1", "sync", "span", "partition", "selective"}
	var got []string
	for _, e := range catalogue() {
		got = append(got, e.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("catalogue names = %v, want %v", got, want)
	}
	for _, name := range want {
		if Title(name) == "" || CheckHarness(name) != nil {
			t.Errorf("%q: title %q, check %v; want a titled catalogue entry", name, Title(name), CheckHarness(name))
		}
	}
	if err := CheckHarness("fig9"); err == nil || err.Error() != `unknown harness "fig9"` {
		t.Errorf("CheckHarness(fig9) = %v", err)
	}
	// An unknown name is refused before anything runs (a started run
	// would fail on the cancelled context instead).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Render(ctx, Options{}, "fig9", Params{}); err == nil || err.Error() != `unknown harness "fig9"` {
		t.Errorf("Render(fig9) = %v, want an unknown-harness error", err)
	}
}

// The kernel figures cache under exactly KernelCellKey: a cache primed
// cell by cell through NamedKernelCell (as smtd and the studies fill a
// store) serves the whole of Figure 3 over the mm-small grid and both
// Figure 5 panels without simulating a single cell.
func TestKernelFiguresReuseNamedKernelCells(t *testing.T) {
	type cell struct {
		kernel string
		size   int
		mode   kernels.Mode
	}
	var cells []cell
	for _, inst := range []struct {
		kernel string
		size   int
	}{{"mm", 16}, {"mm", 32}, {"cg", 0}, {"bt", 0}} {
		modes, err := KernelModes(inst.kernel, inst.size)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			cells = append(cells, cell{inst.kernel, inst.size, m})
		}
	}
	opt := Options{Cache: runner.NewCache()}
	if _, err := runner.Map(context.Background(), 0, cells, func(_ context.Context, c cell) (KernelMetrics, error) {
		return NamedKernelCell(opt, c.kernel, c.size, c.mode)
	}); err != nil {
		t.Fatal(err)
	}
	primed := opt.Cache.Stats()

	for _, name := range []string{"fig3", "fig5cg", "fig5bt"} {
		if _, err := Render(context.Background(), opt, name, Params{Sizes: []int{16, 32}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if st := opt.Cache.Stats(); st.Misses != primed.Misses || st.Entries != primed.Entries {
		t.Errorf("kernel figures simulated %d cells over a primed cache (entries %d → %d)",
			st.Misses-primed.Misses, primed.Entries, st.Entries)
	}
}

// titleLiteral matches a figure or ablation heading: "Figure 2(a) — …",
// "Ablation §3.1 — …".
var titleLiteral = regexp.MustCompile(`^(Figure [0-9]|Ablation §)\S* — `)

// TestOnlyCatalogueDeclaresTitles keeps this package the one place a
// named result is declared: no non-test file elsewhere in the module
// may spell a figure or ablation title. Nested modules (the benchmark)
// are their own concern and are skipped.
func TestOnlyCatalogueDeclaresTitles(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	self, _ := filepath.Abs(".")
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || path == self) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && titleLiteral.MatchString(s) {
				t.Errorf("%s: title literal %q outside internal/experiments; use experiments.Title or Render", fset.Position(lit.Pos()), s)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files under %s; the walk is not covering the module", files, root)
	}
}

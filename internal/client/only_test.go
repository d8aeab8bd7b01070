package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyClientBuildsRequests keeps this package the one HTTP client
// of the module: no non-test file elsewhere may build a request
// (http.NewRequest*, http.Get/Head/Post/PostForm), reach for
// http.DefaultClient, or construct an http.Client. Nested modules (the
// benchmark) are their own concern and are skipped.
func TestOnlyClientBuildsRequests(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	self, _ := filepath.Abs(".")
	banned := map[string]bool{
		"NewRequest": true, "NewRequestWithContext": true,
		"Get": true, "Head": true, "Post": true, "PostForm": true, "DefaultClient": true,
	}
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
		httpName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "net/http" {
				httpName = "http"
				if imp.Name != nil {
					httpName = imp.Name.Name
				}
			}
		}
		if httpName == "" {
			return nil
		}
		isHTTP := func(e ast.Expr, names map[string]bool) (string, bool) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return "", false
			}
			x, ok := sel.X.(*ast.Ident)
			return sel.Sel.Name, ok && x.Name == httpName && names[sel.Sel.Name]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if name, bad := isHTTP(n, banned); bad {
					t.Errorf("%s: http.%s outside internal/client", fset.Position(n.Pos()), name)
				}
			case *ast.CompositeLit:
				if _, bad := isHTTP(n.Type, map[string]bool{"Client": true}); bad {
					t.Errorf("%s: http.Client{} outside internal/client", fset.Position(n.Pos()))
				}
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

// Package lint holds repo-wide static checks that gate CI. They live in
// a test so `go test ./...` enforces them with no extra tooling.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	iofs "io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// walkSources parses every non-test Go source file of the repository and
// hands it to fn with its path relative to the repository root.
func walkSources(t *testing.T, fn func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".github", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, 0)
		if perr != nil {
			return perr
		}
		rel, _ := filepath.Rel(root, path)
		fn(filepath.ToSlash(rel), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoDroppedCloseOrSyncErrors walks every non-test source file and
// flags a bare `x.Close()` or `x.Sync()` statement: both return the
// write-back errors a durable store must not drop. A deliberate discard
// on an error path is spelled `_ = x.Close()` (and a deferred cleanup
// `defer x.Close()` stays idiomatic) — the point is that dropping the
// error is visible in the code, never an accident.
func TestNoDroppedCloseOrSyncErrors(t *testing.T) {
	walkSources(t, func(rel string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := sel.Sel.Name; name == "Close" || name == "Sync" {
				t.Errorf("%s:%d: %s() error dropped silently (use `_ = ...` to discard deliberately)",
					rel, fset.Position(es.Pos()).Line, name)
			}
			return true
		})
	})
}

// pathOnlyConstructors are the only functions allowed a `…FS` twin: the
// path-only convenience forms the nested benchmark module calls, each a
// one-liner over its FS-taking implementation.
var pathOnlyConstructors = map[string]bool{
	"internal/pagefile.Open":         true,
	"internal/pagefile.CreateWriter": true,
	"internal/mht.Open":              true,
	"internal/mht.CreateWriter":      true,
}

// TestNoFSConstructorTwins: one constructor per file kind. A package that
// exports both `Foo` and `FooFS` has grown a second way to do one job —
// the surviving function takes a vfs.FS (nil = the real filesystem).
func TestNoFSConstructorTwins(t *testing.T) {
	funcs := map[string]map[string]bool{} // package dir → exported top-level funcs
	walkSources(t, func(rel string, _ *token.FileSet, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if funcs[dir] == nil {
			funcs[dir] = map[string]bool{}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[dir][fd.Name.Name] = true
			}
		}
	})
	allowed := 0
	for dir, names := range funcs {
		for name := range names {
			if !names[name+"FS"] {
				continue
			}
			if pathOnlyConstructors[dir+"."+name] {
				allowed++
				continue
			}
			t.Errorf("%s exports both %s and %sFS: keep one function that takes a vfs.FS", dir, name, name)
		}
	}
	if allowed != len(pathOnlyConstructors) {
		t.Errorf("%d of the %d allow-listed path-only constructors still have an FS twin; prune the list", allowed, len(pathOnlyConstructors))
	}
}

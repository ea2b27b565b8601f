// Package lint holds repo-wide static checks that gate CI. They live in
// a test so `go test ./...` enforces them with no extra tooling.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	iofs "io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// walkSources parses every Go source file of the repository, with its
// comments, and hands it to fn with its path relative to the repository
// root. Test files are included only when tests is set.
func walkSources(t *testing.T, tests bool, fn func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".github", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
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
	walkSources(t, false, func(rel string, fset *token.FileSet, f *ast.File) {
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
// one-liner over its FS-taking implementation. (The benchmark's
// CreateWriters have no twin: each is a few lines over its package's one
// writer, whose constructor takes the FS.)
var pathOnlyConstructors = map[string]bool{
	"internal/pagefile.Open": true,
	"internal/mht.Open":      true,
}

// TestNoFSConstructorTwins: one constructor per file kind. A package that
// exports both `Foo` and `FooFS` has grown a second way to do one job —
// the surviving function takes a vfs.FS (nil = the real filesystem).
func TestNoFSConstructorTwins(t *testing.T) {
	funcs := map[string]map[string]bool{} // package dir → exported top-level funcs
	walkSources(t, false, func(rel string, _ *token.FileSet, f *ast.File) {
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

// optionsFieldCount is the size core.Options is held to: a new knob must
// retire one, or argue its way past this number in review.
const optionsFieldCount = 10

// reshardOptionsFieldCount is the size reshard.Options is held to: the
// source store's B and the filesystem. Fault injection goes through the
// filesystem, so a test hook has no place on the public struct.
const reshardOptionsFieldCount = 2

// optionsFields returns the field names of the Options struct declared
// in the file at rel (relative to the repository root).
func optionsFields(t *testing.T, rel string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", rel), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Options" {
			return true
		}
		for _, fld := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range fld.Names {
				fields = append(fields, name.Name)
			}
		}
		return false
	})
	return fields
}

// TestReshardOptionsFieldCount pins reshard.Options at its size.
func TestReshardOptionsFieldCount(t *testing.T) {
	if fields := optionsFields(t, "internal/reshard/reshard.go"); len(fields) != reshardOptionsFieldCount {
		t.Errorf("reshard.Options has %d fields, want %d: %v", len(fields), reshardOptionsFieldCount, fields)
	}
}

// unsetOptions are the core.Options fields no non-test file outside
// internal/core sets, each with the reason it stays a field anyway.
var unsetOptions = map[string]string{
	"VerifyReads": "safety check an operator opts into; the corruption-matrix tests turn it on",
}

// isOptionsType reports whether expr spells core.Options or cole.Options
// (optionally behind a pointer).
func isOptionsType(expr ast.Expr) bool {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Options" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && (pkg.Name == "core" || pkg.Name == "cole")
}

// optionsLiteral returns expr as a core/cole.Options composite literal
// (optionally behind &), or nil.
func optionsLiteral(expr ast.Expr) *ast.CompositeLit {
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
		expr = u.X
	}
	if cl, ok := expr.(*ast.CompositeLit); ok && cl.Type != nil && isOptionsType(cl.Type) {
		return cl
	}
	return nil
}

// TestOptionsFieldsHaveCallers: every core.Options field earns its place.
// A field counts as set when a non-test file outside internal/core names
// it in a core.Options / cole.Options literal, or assigns it on a
// variable the file declares with that type (a parameter, a var, or a
// literal). Fields nobody sets sit in unsetOptions with a reason; an
// entry there that has gained a setter (or lost its field) is stale and
// fails too.
func TestOptionsFieldsHaveCallers(t *testing.T) {
	fields := optionsFields(t, "internal/core/core.go")
	set := map[string]string{} // field → first setter (file:line)
	walkSources(t, false, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(rel, "internal/core/") {
			return
		}
		note := func(field string, pos token.Pos) {
			if _, seen := set[field]; !seen {
				set[field] = rel + ":" + strconv.Itoa(fset.Position(pos).Line)
			}
		}
		vars := map[string]bool{} // identifiers this file declares as Options
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field: // parameters and results
				if isOptionsType(n.Type) {
					for _, name := range n.Names {
						vars[name.Name] = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if (n.Type != nil && isOptionsType(n.Type)) || (i < len(n.Values) && optionsLiteral(n.Values[i]) != nil) {
						vars[name.Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && optionsLiteral(n.Rhs[i]) != nil {
						vars[id.Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type == nil || !isOptionsType(n.Type) {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							note(key.Name, kv.Pos())
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if id, ok := sel.X.(*ast.Ident); ok && vars[id.Name] {
						note(sel.Sel.Name, sel.Pos())
					}
				}
			}
			return true
		})
	})
	if len(fields) != optionsFieldCount {
		t.Errorf("core.Options has %d fields, want %d: %v", len(fields), optionsFieldCount, fields)
	}
	isField := map[string]bool{}
	for _, name := range fields {
		isField[name] = true
		_, allowed := unsetOptions[name]
		switch setter, isSet := set[name]; {
		case !isSet && !allowed:
			t.Errorf("core.Options.%s is set by no non-test file outside internal/core: make it a constant, or add it to unsetOptions with the reason it stays", name)
		case isSet && allowed:
			t.Errorf("core.Options.%s is in unsetOptions but %s sets it: prune the entry", name, setter)
		}
	}
	for name := range unsetOptions {
		if !isField[name] {
			t.Errorf("unsetOptions names %s, which is not a core.Options field: prune the entry", name)
		}
	}
}

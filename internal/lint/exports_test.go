package lint

import (
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the exported package-level identifiers under
// internal/ that only tests reference, each with the reason it stays
// exported. The list may only shrink: a new test-only export moves to
// its package's export_test.go instead.
var testOnlyExports = map[string]string{
	"internal/vfs.NewMem": "builds the fault-injecting MemFS the crash, core, mht, pagefile and run tests share; its fault hooks are methods",
}

// TestNoTestOnlyExports fails on an exported package-level func, type,
// var or const, declared in a non-test file under internal/, that no
// non-test file references: production code does not need it, so it is
// either dead or test scaffolding that belongs in export_test.go. A
// qualified reference `pkg.Name` is resolved through the file's imports;
// an unqualified one counts for the file's own package. Every Go file of
// the repository is a possible caller, the benchmark module's included.
// Methods and struct fields are out of reach: a name alone does not say
// which type's method a selector calls.
func TestNoTestOnlyExports(t *testing.T) {
	decls := map[string]string{} // "internal/pkg.Name" → file:line
	prodRefs, testRefs := map[string]bool{}, map[string]bool{}
	walkSources(t, true, func(rel string, fset *token.FileSet, f *ast.File) {
		isTest := strings.HasSuffix(rel, "_test.go")
		dir := path.Dir(rel)
		note := func(key string) {
			if isTest {
				testRefs[key] = true
			} else {
				prodRefs[key] = true
			}
		}

		// Declaring names are not references to them.
		declIdents := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident) {
			declIdents[id] = true
			if !isTest && strings.HasPrefix(dir, "internal/") && id.IsExported() {
				decls[dir+"."+id.Name] = rel + ":" + strconv.Itoa(fset.Position(id.Pos()).Line)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				} else {
					// A type named only by its own methods' receivers
					// is still unreferenced.
					declIdents[d.Name] = true
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							declIdents[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}

		imports := map[string]string{} // local name → "internal/pkg"
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rest, ok := strings.CutPrefix(p, "cole/")
			if !ok {
				continue
			}
			name := path.Base(rest)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rest
		}

		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						note(p + "." + n.Sel.Name)
						return false
					}
				}
				// Sel names a field or method, not a package-level name.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declIdents[n] {
					note(dir + "." + n.Name)
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	})

	var found []string
	for key, at := range decls {
		_, allowed := testOnlyExports[key]
		switch {
		case prodRefs[key] && allowed:
			t.Errorf("%s is in testOnlyExports but non-test code references it: prune the entry", key)
		case !prodRefs[key] && !allowed:
			how := "nothing references it"
			if testRefs[key] {
				how = "only tests reference it"
			}
			found = append(found, at+": "+key+": "+how+"; delete it, or move it to the package's export_test.go")
		}
	}
	for key := range testOnlyExports {
		if _, ok := decls[key]; !ok {
			t.Errorf("testOnlyExports names %s, which is not an exported declaration: prune the entry", key)
		}
	}
	sort.Strings(found)
	for _, msg := range found {
		t.Error(msg)
	}
}

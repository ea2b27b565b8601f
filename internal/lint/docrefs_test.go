package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// mdCitation matches a Markdown file name or path in a comment.
var mdCitation = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestCommentsCiteExistingDocs walks every Go file of the repository,
// tests included, and fails on a comment that cites a *.md file the
// repository does not have: a note that sends its reader to a missing
// document explains nothing. A citation resolves against the repository
// root or the citing file's directory.
func TestCommentsCiteExistingDocs(t *testing.T) {
	if got, want := mdCitation.FindAllString("see DESIGN.md §4 and benchmark/README.md.", -1), []string{"DESIGN.md", "benchmark/README.md"}; !slices.Equal(got, want) {
		t.Fatalf("citation pattern found %q, want %q", got, want)
	}
	root := filepath.Join("..", "..")
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	walkSources(t, true, func(rel string, fset *token.FileSet, f *ast.File) {
		dir := filepath.Join(root, filepath.Dir(filepath.FromSlash(rel)))
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, doc := range mdCitation.FindAllString(c.Text, -1) {
					if !exists(filepath.Join(root, doc)) && !exists(filepath.Join(dir, doc)) {
						t.Errorf("%s:%d: comment cites %s, which is not in the repository",
							rel, fset.Position(c.Pos()).Line, doc)
					}
				}
			}
		}
	})
}

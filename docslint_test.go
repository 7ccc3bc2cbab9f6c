package negfsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsLintFiles are the markdown files whose intra-repo links the docs lint
// checks; docs/ is globbed in addition.
var docsLintFiles = []string{
	"README.md",
	"ARCHITECTURE.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	"PAPER.md",
}

// mdLink matches inline markdown links: [text](target), capturing the target
// without any #fragment. Autolinks and reference-style links are out of
// scope — the repo's docs use inline links only.
var mdLink = regexp.MustCompile(`\]\(([^)#\s]+)(#[^)]*)?\)`)

// goRun matches a `go run ./<dir>` command line, capturing the package path
// relative to the repo root.
var goRun = regexp.MustCompile(`go run (\./[\w./-]+)`)

// TestDocLinks is the docs lint of the tier-1 gate (`make docs-lint`): every
// relative link in the repo's markdown must point at a file or directory
// that exists, and every `go run ./<dir>` must name a directory of the repo,
// so doc rot of the "renamed file, stale link" or "deleted binary, stale
// command" kind fails CI instead of greeting a reader with a 404.
func TestDocLinks(t *testing.T) {
	files := append([]string(nil), docsLintFiles...)
	globbed, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, globbed...)
	if len(globbed) == 0 {
		t.Error("docs/*.md matched nothing — the docs suite is missing")
	}

	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			if os.IsNotExist(err) && file != "README.md" {
				continue // optional root docs may not exist in every checkout
			}
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external links are not this lint's business
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, target, resolved)
			}
			checked++
		}
		for _, m := range goRun.FindAllStringSubmatch(string(raw), -1) {
			if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s: %q names no package directory of the repo", file, m[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no relative links found at all — the lint is matching nothing")
	}
}

// docSymbolFiles are the markdown files whose backticked `pkg.Name`
// references the symbol lint resolves; docs/ is globbed in addition.
// ROADMAP.md and CHANGES.md are history and may name deleted code.
var docSymbolFiles = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}

// codeSpan matches a backticked span on one line; pkgName matches a
// `pkg.Name` reference inside one, capturing the package and the exported
// name (`pkg.lower_case` spans are metric and span names, not Go).
var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	pkgName  = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)`)
)

// internalDecls returns, per package directory under internal/, the names
// of its top-level declarations and methods in non-test files.
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		names := map[string]bool{}
		files, err := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					names[decl.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
		decls[d.Name()] = names
	}
	return decls
}

// TestDocSymbols is the symbol half of the docs lint: every backticked
// `pkg.Name` in the reader-facing docs whose pkg is a package under
// internal/ must name a top-level declaration or a method of that package,
// so deleting or renaming code fails CI until the docs that cite it follow.
func TestDocSymbols(t *testing.T) {
	decls := internalDecls(t)
	globbed, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range append(append([]string(nil), docSymbolFiles...), globbed...) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, span := range codeSpan.FindAllStringSubmatch(string(raw), -1) {
			for _, m := range pkgName.FindAllStringSubmatch(span[1], -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue // not one of our packages (fmt.Println, a.B, …)
				}
				if !names[m[2]] {
					t.Errorf("%s: `%s.%s` names no declaration or method of internal/%s", file, m[1], m[2], m[1])
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Error("no `pkg.Name` reference found at all — the lint is matching nothing")
	}
}

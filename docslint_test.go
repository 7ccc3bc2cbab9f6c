package negfsim

import (
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

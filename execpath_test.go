package negfsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// legacyEntryPoints are core's mode-specific runners (and their
// context.Background() twins). They stay for the benchmark's adapter and
// the tests, but product code reaches the solver through Simulator.Execute
// only.
var legacyEntryPoints = map[string]bool{
	"RunFromCtx": true, "RunAdaptiveCtx": true, "RunDistributedFTCtx": true, "RunWithPoissonCtx": true,
	"RunFrom": true, "RunAdaptive": true, "RunDistributed": true, "RunDistributedFT": true, "RunWithPoisson": true,
}

// TestOneExecutionPath keeps the execution-path fork from growing back:
// outside internal/core no non-test file may call a mode-specific runner
// (examples are exempt; bench/ is another module and moves in its own PR),
// and internal/core holds exactly one loop bounded by Opts.MaxIter — the
// Born loop.
func TestOneExecutionPath(t *testing.T) {
	bornLoops := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "bench", ".bench_build", "examples", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inCore := filepath.ToSlash(filepath.Dir(path)) == "internal/core"
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if sel, ok := v.Fun.(*ast.SelectorExpr); ok && !inCore && legacyEntryPoints[sel.Sel.Name] {
					t.Errorf("%s: calls %s — dispatch through (*core.Simulator).Execute instead",
						fset.Position(v.Pos()), sel.Sel.Name)
				}
			case *ast.ForStmt:
				if inCore && v.Cond != nil && mentionsOptsMaxIter(v.Cond) {
					bornLoops++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bornLoops != 1 {
		t.Errorf("internal/core has %d for-loops bounded by Opts.MaxIter, want exactly one Born loop", bornLoops)
	}
}

// inverseHomes are the only internal/rgf functions allowed to invert a block:
// the forward elimination every solver shares, the boundary decimation and
// the dense oracle.
var inverseHomes = map[string]bool{"forwardGL": true, "surfaceGFInto": true, "DenseReference": true}

// TestOneRGFElimination keeps internal/rgf on one open-system point solve and
// one elimination: in its non-test files BoundarySelfEnergies is called
// exactly once, SolveKeldysh from exactly one function, and
// cmat.Inverse/InverseInto appear in exactly the inverseHomes.
func TestOneRGFElimination(t *testing.T) {
	files, err := filepath.Glob("internal/rgf/*.go")
	if err != nil {
		t.Fatal(err)
	}
	boundaryCalls := 0
	keldyshCallers := map[string]bool{}
	inverters := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					switch callee := v.Fun.(type) {
					case *ast.Ident:
						if callee.Name == "BoundarySelfEnergies" {
							boundaryCalls++
						}
					case *ast.SelectorExpr:
						if callee.Sel.Name == "SolveKeldysh" {
							keldyshCallers[fn.Name.Name] = true
						}
					}
				case *ast.SelectorExpr:
					if x, ok := v.X.(*ast.Ident); ok && x.Name == "cmat" && (v.Sel.Name == "Inverse" || v.Sel.Name == "InverseInto") {
						inverters[fn.Name.Name] = true
						if !inverseHomes[fn.Name.Name] {
							t.Errorf("%s: %s inverts a block with cmat.%s — eliminate through forwardGL instead",
								fset.Position(v.Pos()), fn.Name.Name, v.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	if boundaryCalls != 1 {
		t.Errorf("internal/rgf calls BoundarySelfEnergies %d times, want once (in the shared point solve)", boundaryCalls)
	}
	if len(keldyshCallers) != 1 {
		t.Errorf("SolveKeldysh is called from %d functions %v, want exactly one", len(keldyshCallers), keldyshCallers)
	}
	for home := range inverseHomes {
		if !inverters[home] {
			t.Errorf("%s no longer calls cmat.Inverse/InverseInto — update inverseHomes", home)
		}
	}
}

// mentionsOptsMaxIter reports whether an expression reads <x>.Opts.MaxIter.
func mentionsOptsMaxIter(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "MaxIter" {
			if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "Opts" {
				found = true
			}
		}
		return !found
	})
	return found
}

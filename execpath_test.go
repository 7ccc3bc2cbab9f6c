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
	eachNonTestFile(t, fset, []string{"examples"}, func(dir string, f *ast.File) {
		inCore := dir == "internal/core"
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
	})
	if bornLoops != 1 {
		t.Errorf("internal/core has %d for-loops bounded by Opts.MaxIter, want exactly one Born loop", bornLoops)
	}
}

// lifecycleHelpers are the HTTP helpers internal/jobs owns; no other
// package under internal/ may declare its own.
var lifecycleHelpers = map[string]bool{"writeJSON": true, "writeError": true, "writeErr": true}

// TestOneJobLifecycle keeps the service tiers on the one job lifecycle of
// internal/jobs. In non-test files under internal/ outside it: no
// lifecycle HTTP helper is declared; a function named WaitIter or Wait does
// no waiting of its own (no loop, no cond wait — a forwarder to a jobs
// record is fine); context.AfterFunc is not called; no string constant
// spells the lifecycle state "succeeded"; the only struct holding a
// sync.Cond is serve's Scheduler (its run queue, not a job); and serve,
// front and campaign each keep their jobs in a jobs.Store.
func TestOneJobLifecycle(t *testing.T) {
	stores := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if d.IsDir() || dir == "internal/jobs" || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				name := v.Name.Name
				if lifecycleHelpers[name] {
					t.Errorf("%s: declares %s — use jobs.WriteJSON/WriteError", fset.Position(v.Pos()), name)
				}
				if (name == "WaitIter" || name == "Wait") && v.Body != nil && waitsItself(v.Body) {
					t.Errorf("%s: %s waits itself — forward to a jobs.Record", fset.Position(v.Pos()), name)
				}
			case *ast.CallExpr:
				fun := v.Fun
				if inst, ok := fun.(*ast.IndexExpr); ok { // jobs.NewStore[*T](…)
					fun = inst.X
				}
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "context" && sel.Sel.Name == "AfterFunc" {
						t.Errorf("%s: calls context.AfterFunc — wait on a jobs.Record instead", fset.Position(v.Pos()))
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "jobs" && sel.Sel.Name == "NewStore" {
						stores[dir]++
					}
				}
			case *ast.ValueSpec:
				for _, val := range v.Values {
					if lit, ok := val.(*ast.BasicLit); ok && lit.Value == `"succeeded"` {
						t.Errorf("%s: spells the lifecycle state \"succeeded\" — alias jobs.Succeeded", fset.Position(lit.Pos()))
					}
				}
			case *ast.TypeSpec:
				st, ok := v.Type.(*ast.StructType)
				if !ok || (dir == "internal/serve" && v.Name.Name == "Scheduler") {
					return true
				}
				for _, field := range st.Fields.List {
					if isSyncCond(field.Type) {
						t.Errorf("%s: %s holds a sync.Cond — embed a jobs.Record", fset.Position(field.Pos()), v.Name.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"internal/serve", "internal/front", "internal/campaign"} {
		if stores[tier] != 1 {
			t.Errorf("%s calls jobs.NewStore %d times, want once", tier, stores[tier])
		}
	}
}

// waitsItself reports whether a function body loops or calls a method
// named Wait (a sync.Cond wait).
func waitsItself(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSyncCond reports whether a field type is sync.Cond or *sync.Cond.
func isSyncCond(e ast.Expr) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "sync" && sel.Sel.Name == "Cond"
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

// TestCompileTimeKernels keeps the kernel configuration compile-time. No
// non-test file under internal/cmat may declare a package-level
// atomic.Pointer or an exported Set* function: a process-wide knob swapped at
// run time changes the summation order of products, so one document would
// no longer give the same bits on every worker. And no non-test file outside
// bench/ may call os.UserCacheDir, so no run reads hidden per-host state.
func TestCompileTimeKernels(t *testing.T) {
	fset := token.NewFileSet()
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		if dir == "internal/cmat" {
			for _, decl := range f.Decls {
				switch v := decl.(type) {
				case *ast.FuncDecl:
					if v.Recv == nil && v.Name.IsExported() && strings.HasPrefix(v.Name.Name, "Set") {
						t.Errorf("%s: declares %s — the kernel configuration is compile-time", fset.Position(v.Pos()), v.Name.Name)
					}
				case *ast.GenDecl:
					if v.Tok != token.VAR {
						continue
					}
					for _, spec := range v.Specs {
						vs := spec.(*ast.ValueSpec)
						if isAtomicPointer(vs.Type) {
							t.Errorf("%s: package-level atomic.Pointer %s — the kernel configuration is compile-time",
								fset.Position(vs.Pos()), vs.Names[0].Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "UserCacheDir" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "os" {
						t.Errorf("%s: calls os.UserCacheDir — a run must not read hidden per-host state", fset.Position(call.Pos()))
					}
				}
			}
			return true
		})
	})
}

// sseWrappers are the DaCe entry points of internal/sse that must stay thin
// wrappers over the one tile kernel body per self-energy.
var sseWrappers = map[string]bool{
	"SigmaDaCe": true, "PiDaCe": true, "SigmaDaCeTile": true, "PiDaCeTile": true, "ComputePhase": true,
}

// TestOneSSEKernel keeps one DaCe loop nest per self-energy: in the non-test
// files of internal/sse the serial kernels, the exported tile kernels and
// ComputePhase contain no for statement (they allocate and call the tile
// body), and no sync.Mutex is declared — tiles write disjoint atoms in
// place, so nothing needs a lock.
func TestOneSSEKernel(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		if dir != "internal/sse" {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !sseWrappers[fd.Name.Name] {
				continue
			}
			seen[fd.Name.Name] = true
			loops := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops++
				}
				return true
			})
			if loops > 0 {
				t.Errorf("%s: %s has %d for statements — it must wrap the tile kernel body",
					fset.Position(fd.Pos()), fd.Name.Name, loops)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mutex" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" {
					t.Errorf("%s: declares a sync.Mutex — tiles write disjoint atoms in place", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
	for name := range sseWrappers {
		if !seen[name] {
			t.Errorf("internal/sse no longer declares %s — update sseWrappers", name)
		}
	}
}

// eachNonTestFile parses every non-test Go file of the repository outside
// bench/ (another module), .bench_build, .git and the extra skip directories,
// and hands it to fn with its slash-separated directory.
func eachNonTestFile(t *testing.T, fset *token.FileSet, skip []string, fn func(dir string, f *ast.File)) {
	t.Helper()
	skip = append([]string{"bench", ".bench_build", ".git"}, skip...)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			for _, s := range skip {
				if path == s {
					return filepath.SkipDir
				}
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
		fn(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isAtomicPointer reports whether a type expression is atomic.Pointer[T].
func isAtomicPointer(e ast.Expr) bool {
	if inst, ok := e.(*ast.IndexExpr); ok {
		e = inst.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "atomic" && sel.Sel.Name == "Pointer"
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

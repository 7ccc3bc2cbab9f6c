package negfsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// legacyEntryPoints are core's mode-specific runners. They stay only
// because the benchmark's adapter (bench/, another module) calls them;
// product code reaches the solver through Simulator.Execute.
var legacyEntryPoints = map[string]bool{
	"RunCtx": true, "RunAdaptiveCtx": true, "RunDistributedFTCtx": true, "RunWithPoissonCtx": true,
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

// TestNoRunTwins keeps the Run* family from growing back: internal/core's
// non-test files declare, as exported Run* methods on *Simulator, exactly
// legacyEntryPoints — no context.Background() twin, no resume or
// grid-shaped variant.
func TestNoRunTwins(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		if dir != "internal/core" {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "Run") {
				continue
			}
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok || types.ExprString(star.X) != "Simulator" {
				continue
			}
			seen[fd.Name.Name] = true
			if !legacyEntryPoints[fd.Name.Name] {
				t.Errorf("%s: declares (*Simulator).%s — run through Execute or a kept …Ctx entry point",
					fset.Position(fd.Pos()), fd.Name.Name)
			}
		}
	})
	for name := range legacyEntryPoints {
		if !seen[name] {
			t.Errorf("internal/core no longer declares (*Simulator).%s — update legacyEntryPoints", name)
		}
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
// sync.Cond is serve's Scheduler (its run queue, not a job); serve, front
// and campaign each keep their jobs in a jobs.Store; and no package-level
// declaration aliases jobs.State or re-exports one of its constants — the
// tiers speak jobs.State directly.
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
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch v := spec.(type) {
				case *ast.TypeSpec:
					if isJobsSelector(v.Type, "State") {
						t.Errorf("%s: %s re-declares jobs.State — use jobs.State", fset.Position(v.Pos()), v.Name.Name)
					}
				case *ast.ValueSpec:
					for _, val := range v.Values {
						if isJobsSelector(val, "Queued", "Running", "Succeeded", "Failed", "Cancelled") {
							t.Errorf("%s: re-exports %s — use the jobs constant", fset.Position(val.Pos()), types.ExprString(val))
						}
					}
				}
			}
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

// isJobsSelector reports whether e is jobs.<name> for one of names.
func isJobsSelector(e ast.Expr, names ...string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "jobs" && slices.Contains(names, sel.Sel.Name)
}

// placementFields are the run document's placement and outer-loop
// sections. documentMethods are the core.RunConfig methods a service tier
// may call: they treat the document whole. Every other exported RunConfig
// method reads a placement or the grid policy.
var (
	placementFields = map[string]bool{"Dist": true, "Space": true, "Gate": true}
	documentMethods = map[string]bool{
		"Validate": true, "CheckSeed": true, "Canonical": true, "Marshal": true,
		"Options": true, "NewSimulator": true, "NewSimulatorWith": true, "SSEVariant": true,
	}
)

// TestCompositionPolicyInCore keeps the composition policy — which choices
// a run may combine, and what a seed may seed — in internal/core: the
// non-test files of the service tiers (serve, front, campaign) neither read
// a run document's Dist, Space or Gate field nor call an exported
// core.RunConfig method outside documentMethods. They hand the document to
// core (Validate, CheckSeed, Execute) as it is.
func TestCompositionPolicyInCore(t *testing.T) {
	predicates := map[string]bool{}
	tiers := map[string]bool{"internal/serve": true, "internal/front": true, "internal/campaign": true}
	files := map[string][]*ast.File{}
	fset := token.NewFileSet()
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		files[dir] = append(files[dir], f)
	})
	for _, f := range files["internal/core"] {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || documentMethods[fd.Name.Name] {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if types.ExprString(recv) == "RunConfig" {
				predicates[fd.Name.Name] = true
			}
		}
	}
	if !predicates["DistConfig"] {
		t.Fatalf("found no placement predicate on core.RunConfig (got %v) — update the test", predicates)
	}
	for dir := range tiers {
		for _, f := range files[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" {
					return true // a package-qualified name (core.DistConfig the type), not a field or method
				}
				if placementFields[sel.Sel.Name] || predicates[sel.Sel.Name] {
					t.Errorf("%s: uses %s — the composition policy lives in internal/core",
						fset.Position(sel.Pos()), types.ExprString(sel))
				}
				return true
			})
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

// sweepCallers are the only internal/rgf functions that run the one backward
// sweep: the retarded solve, the exported Keldysh solve and the point solve,
// which carries G^< and G^> through one sweep.
var sweepCallers = map[string]bool{"SolveRetarded": true, "SolveKeldysh": true, "solveOpen": true}

// TestOneRGFElimination keeps internal/rgf on one open-system point solve and
// one elimination: in its non-test files BoundarySelfEnergies is called
// exactly once, the backward sweep is reached from exactly the sweepCallers
// and SolveKeldysh from none (so no solve runs two Keldysh sweeps), and
// cmat.Inverse/InverseInto appear in exactly the inverseHomes.
func TestOneRGFElimination(t *testing.T) {
	files, err := filepath.Glob("internal/rgf/*.go")
	if err != nil {
		t.Fatal(err)
	}
	boundaryCalls := 0
	keldyshCallers := map[string]bool{}
	sweepers := map[string]bool{}
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
						switch callee.Sel.Name {
						case "SolveKeldysh":
							keldyshCallers[fn.Name.Name] = true
						case "sweep":
							sweepers[fn.Name.Name] = true
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
	if len(keldyshCallers) != 0 {
		t.Errorf("SolveKeldysh is called from %v; take G^< and G^> from one sweep instead", keldyshCallers)
	}
	if !maps.Equal(sweepers, sweepCallers) {
		t.Errorf("the backward sweep is reached from %v, want exactly %v", sweepers, sweepCallers)
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
	"SigmaDaCeTileInto": true, "PiDaCeTileInto": true,
}

// TestOneSSEKernel keeps one DaCe loop nest per self-energy: in the non-test
// files of internal/sse the serial kernels, the exported tile kernels, their
// Into forms and ComputePhase contain no for statement (they allocate or
// zero, and call the tile body), and no sync.Mutex is declared — tiles write disjoint atoms in
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

// steadyAllocs are the calls that allocate a full tensor, a block header or
// a fresh kernel output; steady-state code uses the Into forms and storage
// kept across iterations instead.
var steadyAllocs = map[string]bool{
	"NewGTensor": true, "NewDTensor": true, "Clone": true, "Block": true,
	"PreprocessD": true, "SigmaDaCeTile": true, "PiDaCeTile": true, "make": true,
}

// TestSteadyStateAllocatesNothing keeps the distributed SSE phase and the
// Born loop on storage that outlives an iteration: in internal/core, the
// rank closure distributedSSEOn hands to Cluster.Run and the body of the
// Born loop (the for statement bounded by Opts.MaxIter) call none of
// steadyAllocs. They may call the workspace constructors, which allocate
// once per run, on first use.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	fset := token.NewFileSet()
	bodies := map[string]*ast.BlockStmt{}
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		if dir != "internal/core" {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					if sel, ok := v.Fun.(*ast.SelectorExpr); ok && fd.Name.Name == "distributedSSEOn" && sel.Sel.Name == "Run" && len(v.Args) == 1 {
						if lit, ok := v.Args[0].(*ast.FuncLit); ok {
							bodies["distributedSSEOn's rank closure"] = lit.Body
						}
					}
				case *ast.ForStmt:
					if fd.Name.Name == "born" && v.Cond != nil && mentionsOptsMaxIter(v.Cond) {
						bodies["the Born loop body"] = v.Body
					}
				}
				return true
			})
		}
	})
	for _, name := range []string{"distributedSSEOn's rank closure", "the Born loop body"} {
		body := bodies[name]
		if body == nil {
			t.Errorf("internal/core no longer has %s — update the guard", name)
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				callee = fn.Name
			case *ast.SelectorExpr:
				callee = fn.Sel.Name
			}
			if steadyAllocs[callee] {
				t.Errorf("%s: %s calls %s — allocate in the workspace constructor and reuse the storage",
					fset.Position(call.Pos()), name, callee)
			}
			return true
		})
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

// tileKernels are the internal/sse loop nests whose block products must
// count flops into a local cmat.Tally.
var tileKernels = map[string]bool{"sigmaTile": true, "piTile": true}

// TestPublishOnceFlops keeps flop accounting off the block-kernel hot path.
// In the non-test files of internal/cmat no unexported function references
// Counter: kernel bodies return their flops and only exported wrappers
// publish them. Every function that references Counter, or calls one that
// does, is a counted kernel. In internal/sse, sigmaTile and piTile mention
// neither cmat.Counter nor a counted kernel inside a for statement: their
// per-block products use the *Tally forms, published once per tile, so
// concurrent tiles share no cache line per product.
func TestPublishOnceFlops(t *testing.T) {
	fset := token.NewFileSet()
	calls := map[string]map[string]bool{} // cmat function → names it calls
	counted := map[string]bool{}
	var tiles []*ast.FuncDecl
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch {
			case dir == "internal/sse" && tileKernels[fd.Name.Name]:
				tiles = append(tiles, fd)
			case dir == "internal/cmat":
				name := fd.Name.Name
				if calls[name] == nil {
					calls[name] = map[string]bool{}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch v := n.(type) {
					case *ast.Ident:
						if v.Name == "Counter" {
							counted[name] = true
							if !fd.Name.IsExported() {
								t.Errorf("%s: unexported %s references Counter — return the flops and publish them from the exported wrapper",
									fset.Position(v.Pos()), name)
							}
						}
					case *ast.CallExpr:
						switch callee := v.Fun.(type) {
						case *ast.Ident:
							calls[name][callee.Name] = true
						case *ast.SelectorExpr:
							calls[name][callee.Sel.Name] = true
						}
					}
					return true
				})
			}
		}
	})
	for grew := true; grew; { // close counted over the call graph
		grew = false
		for fn, callees := range calls {
			for c := range callees {
				if counted[c] && !counted[fn] {
					counted[fn], grew = true, true
				}
			}
		}
	}
	for _, name := range []string{"MulInto", "MulAddInto", "TraceMul", "Mul"} {
		if !counted[name] {
			t.Errorf("cmat.%s is no longer seen as counted — the guard lost track of Counter", name)
		}
	}
	for _, fd := range tiles {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.ForStmt:
				body = v.Body
			case *ast.RangeStmt:
				body = v.Body
			default:
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "cmat" && sel.Sel.Name == "Counter" || counted[sel.Sel.Name] {
					t.Errorf("%s: %s reaches cmat.Counter through %s inside a loop — count into its cmat.Tally",
						fset.Position(sel.Pos()), fd.Name.Name, sel.Sel.Name)
				}
				return true
			})
			return false
		})
	}
	if len(tiles) != len(tileKernels) {
		t.Errorf("internal/sse declares %d of the tile kernels %v — update tileKernels", len(tiles), tileKernels)
	}
}

// sweepBuiltins are the calls a fused SSE sweep body may make.
var sweepBuiltins = map[string]bool{"len": true, "cap": true, "min": true, "max": true, "complex": true, "real": true, "imag": true}

// TestFusedSSESweeps keeps the tile kernels' hot loops fused: in
// internal/sse, the body of piTile's (kz, E) trace sweep (the kz loop inside
// its qz loop) and the per-E body of sigmaTile's stage 3 (its loop over e)
// call builtins only, and convert to cmat.Tally — no cmat method, ViewInto,
// BlockInto, AddAt or piAccumulate — so each output element is one
// in-register contraction instead of a chain of Norb×Norb block calls.
func TestFusedSSESweeps(t *testing.T) {
	fset := token.NewFileSet()
	sweeps := map[string][]*ast.ForStmt{}
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		if dir != "internal/sse" {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch fd.Name.Name {
			case "piTile":
				for _, qz := range loopsOver(fd.Body, "qz") {
					sweeps["piTile"] = append(sweeps["piTile"], loopsOver(qz.Body, "kz")...)
				}
			case "sigmaTile":
				sweeps["sigmaTile"] = loopsOver(fd.Body, "e")
			}
		}
	})
	for _, name := range []string{"piTile", "sigmaTile"} {
		if len(sweeps[name]) != 1 {
			t.Errorf("internal/sse: found %d sweep loops in %s, want 1 — update the guard", len(sweeps[name]), name)
		}
		for _, loop := range sweeps[name] {
			ast.Inspect(loop.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					if sweepBuiltins[fn.Name] {
						return true
					}
				case *ast.SelectorExpr:
					if x, ok := fn.X.(*ast.Ident); ok && x.Name == "cmat" && fn.Sel.Name == "Tally" {
						return true
					}
				}
				t.Errorf("%s: %s's sweep calls %s — contract in registers with builtins only",
					fset.Position(call.Pos()), name, types.ExprString(call.Fun))
				return true
			})
		}
	}
}

// loopsOver returns the for statements under n whose init statement
// declares the loop variable v.
func loopsOver(n ast.Node, v string) []*ast.ForStmt {
	var out []*ast.ForStmt
	ast.Inspect(n, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if init, ok := loop.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE && len(init.Lhs) == 1 {
			if id, ok := init.Lhs[0].(*ast.Ident); ok && id.Name == v {
				out = append(out, loop)
			}
		}
		return true
	})
	return out
}

// pointSolves are the rgf point solves, each with the index of its
// Scattering argument.
var pointSolves = map[string]int{"SolveElectron": 3, "SolveElectronSpatial": 4, "SolvePhonon": 2}

// boundaryHomes are the internal/core functions allowed to run rgf point
// solves: the GF phase and its spatial electron solver.
var boundaryHomes = map[string]bool{"gfPhase": true, "solveElectronOn": true}

// TestGFPhasePassesBoundary keeps the Born loop from recomputing the open
// boundaries of a point every iteration. In internal/core's non-test files
// rgf point solves appear only in boundaryHomes, and each passes a
// Scattering variable whose Bound is assigned a non-nil value, before the
// call, in the block or function that declares the variable — so every
// solve carries the point's boundary slot.
func TestGFPhasePassesBoundary(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]int{}
	eachNonTestFile(t, fset, nil, func(dir string, f *ast.File) {
		if dir != "internal/core" {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var stack []ast.Node
			ast.Inspect(fd, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				idx, solve := pointSolves[sel.Sel.Name]
				if x, ok := sel.X.(*ast.Ident); !solve || !ok || x.Name != "rgf" {
					return true
				}
				seen[sel.Sel.Name]++
				pos := fset.Position(call.Pos())
				if !boundaryHomes[fd.Name.Name] {
					t.Errorf("%s: %s calls rgf.%s — point solves belong to the GF phase", pos, fd.Name.Name, sel.Sel.Name)
					return true
				}
				arg, ok := call.Args[idx].(*ast.Ident)
				if !ok {
					t.Errorf("%s: rgf.%s gets a Scattering expression — pass a variable whose Bound is set", pos, sel.Sel.Name)
					return true
				}
				scope := declaringScope(stack, arg.Name)
				if scope == nil || !setsBound(scope, arg.Name, call.Pos()) {
					t.Errorf("%s: rgf.%s gets %s without setting %s.Bound first — the point's boundary would be recomputed every Born iteration",
						pos, sel.Sel.Name, arg.Name, arg.Name)
				}
				return true
			})
		}
	})
	for name := range pointSolves {
		if seen[name] == 0 {
			t.Errorf("internal/core no longer calls rgf.%s — update pointSolves", name)
		}
	}
}

// declaringScope returns the body of the innermost enclosing function whose
// parameters include name, or the innermost enclosing block with a direct
// := or var declaration of name, whichever is nearer; nil if none.
func declaringScope(stack []ast.Node, name string) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch v := stack[i].(type) {
		case *ast.FuncLit:
			if hasParam(v.Type, name) {
				return v.Body
			}
		case *ast.FuncDecl:
			if hasParam(v.Type, name) {
				return v.Body
			}
		case *ast.BlockStmt:
			for _, st := range v.List {
				if declaresName(st, name) {
					return v
				}
			}
		}
	}
	return nil
}

func hasParam(ft *ast.FuncType, name string) bool {
	for _, field := range ft.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				return true
			}
		}
	}
	return false
}

// declaresName reports whether a statement declares name with := or var.
func declaresName(st ast.Stmt, name string) bool {
	switch v := st.(type) {
	case *ast.AssignStmt:
		if v.Tok != token.DEFINE {
			return false
		}
		for _, lhs := range v.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
				return true
			}
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.Name == name {
						return true
					}
				}
			}
		}
	}
	return false
}

// setsBound reports whether body assigns a non-nil value to name.Bound
// before pos, outside nested function literals.
func setsBound(body *ast.BlockStmt, name string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if v.Pos() >= pos || len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Bound" {
					continue
				}
				x, ok := sel.X.(*ast.Ident)
				if rhs, isIdent := v.Rhs[i].(*ast.Ident); ok && x.Name == name && !(isIdent && rhs.Name == "nil") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

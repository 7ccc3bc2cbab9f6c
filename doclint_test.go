package negfsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// The packages whose exported API the doc-comment lint enforces — the
// observability layer, the two packages an operator reads first when
// interpreting its output, and the service API that clients program against.
var doclintPackages = []string{
	"internal/obs",
	"internal/comm",
	"internal/core",
	"internal/serve",
	"internal/transport",
	"internal/num",
	"internal/front",
	"internal/device",
	"internal/campaign",
	"internal/egrid",
	"internal/jobs",
}

// exportedRecv reports whether a method receiver names an exported type
// (unwrapping pointers and generic instantiations).
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return false
		}
	}
}

// TestExportedSymbolsAreDocumented is the doc-comment lint of the tier-1
// gate: every exported top-level function, method on an exported type,
// type, constant and variable in the packages above must carry a doc
// comment (group docs on const/var blocks count).
func TestExportedSymbolsAreDocumented(t *testing.T) {
	for _, dir := range doclintPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if !d.Name.IsExported() {
							continue
						}
						if d.Recv != nil && !exportedRecv(d.Recv) {
							continue
						}
						if d.Doc == nil {
							t.Errorf("%s: %s lacks a doc comment",
								fset.Position(d.Pos()), d.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									t.Errorf("%s: type %s lacks a doc comment",
										fset.Position(s.Pos()), s.Name.Name)
								}
							case *ast.ValueSpec:
								exported := false
								for _, n := range s.Names {
									if n.IsExported() {
										exported = true
									}
								}
								if exported && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									t.Errorf("%s: %s lacks a doc comment",
										fset.Position(s.Pos()), s.Names[0].Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

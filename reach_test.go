package mcudist

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the internal/ declarations that
// TestInternalDeclarationsReachable accepts without a production
// caller, each with the reason: the test that needs it.
var unreachedAllowed = map[string]string{
	"internal/interconnect.(*Schedule).CollectiveBytes": "the expected link traffic in perfsim.TestTopologyTrafficConservation and interconnect.TestCollectiveBytes",
	"internal/hw.TorusNetwork":                          "the multi-hop wiring fixture of interconnect.TestRouteTorusAroundGap and resilience.TestNetlistFromNetworkRoundTrip",
}

// TestInternalDeclarationsReachable type-checks the module and bench/
// from source and fails naming every top-level function, method or type
// under internal/ that no program reaches. The roots are the main
// function of every package main (the commands, the examples and the
// benchmark), plus the init functions and package-level variable
// initializers of every package they import. A reached declaration
// reaches whatever its body, signature or type definition names. A
// method of a reached type is also reached when an interface method of
// the same name is called on a reached path, or when it satisfies
// error, fmt.Stringer, encoding.TextMarshaler or
// encoding.TextUnmarshaler (checked by type). Code only tests call
// belongs in a _test.go file.
func TestInternalDeclarationsReachable(t *testing.T) {
	tr, err := loadTree(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := tr.unreached()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var dead []string
	for _, d := range unreached {
		if _, ok := unreachedAllowed[d.name]; ok {
			used[d.name] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s)", d.name, tr.fset.Position(d.obj.Pos())))
	}
	if len(dead) > 0 {
		t.Errorf("%d internal/ declarations are reached by no command, example or benchmark; delete them, or move them into the _test.go file that needs them:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	for key := range unreachedAllowed {
		if !used[key] {
			t.Errorf("unreachedAllowed entry %q matches no unreached declaration; drop it", key)
		}
	}
}

// unsetAllowed lists the internal/ struct fields that
// TestInternalFieldsSet accepts without a production writer, each with
// the reason: the test that needs it.
var unsetAllowed = map[string]string{
	"internal/explore.PlanFrontierOptions.Exhaustive": "the ground-truth path TestPlanFrontierMatchesExhaustive8 and 64 hold the surrogate-first frontier to",
	"internal/explore.SessionOptions.Exhaustive":      "the ground-truth path TestAutotuneSessionMatchesExhaustive8 and 64 hold the pruned session search to",
	"internal/explore.TilingOptions.Exhaustive":       "the ground-truth path TestAutotuneTilingMatchesExhaustive holds the pruned tiling search to",
}

// TestInternalFieldsSet fails naming every field of a struct declared
// under internal/ that no non-test file of the module or bench/ sets.
// A field counts as set where such a file assigns it (directly, or
// through an index or a longer selector), names it as a
// composite-literal key, builds its struct with an unkeyed literal,
// takes its address, or calls a method on it. A field only tests set
// is a switch no program can flip: delete it, and the code behind it.
func TestInternalFieldsSet(t *testing.T) {
	tr, err := loadTree(".")
	if err != nil {
		t.Fatal(err)
	}
	set := tr.setFields()
	used := map[string]bool{}
	var unset []string
	for _, f := range tr.internalFields() {
		if set[f.obj] {
			continue
		}
		if _, ok := unsetAllowed[f.name]; ok {
			used[f.name] = true
			continue
		}
		unset = append(unset, fmt.Sprintf("%s (%s)", f.name, tr.fset.Position(f.obj.Pos())))
	}
	if len(unset) > 0 {
		t.Errorf("%d internal/ struct fields are set by no command, example, benchmark or library file; delete them, with the code that reads them:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
	for key := range unsetAllowed {
		if !used[key] {
			t.Errorf("unsetAllowed entry %q matches no unset field; drop it", key)
		}
	}
}

// internalFields returns, sorted by name, the fields of every struct
// type written in a non-test file under internal/: named, local and
// anonymous (named "struct").
func (tr *sourceTree) internalFields() []decl {
	var out []decl
	for ip, files := range tr.files {
		rel := strings.TrimPrefix(ip, "mcudist/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, f := range files {
			named := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name
					}
				case *ast.StructType:
					owner := cmp.Or(named[n], "struct")
					s := tr.info.TypeOf(n).(*types.Struct)
					for i := 0; i < s.NumFields(); i++ {
						out = append(out, decl{rel + "." + owner + "." + s.Field(i).Name(), s.Field(i)})
					}
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// setFields returns every struct field some non-test file of the tree
// sets, by its declared (origin) object.
func (tr *sourceTree) setFields() map[types.Object]bool {
	set := map[types.Object]bool{}
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			set[v.Origin()] = true
		}
	}
	// target marks every field an lvalue-like expression selects on
	// its way down to its root: x.a.b[i].c marks c, b and a.
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			mark(tr.info.Uses[e.Sel])
			target(e.X)
		case *ast.IndexExpr:
			target(e.X)
		case *ast.StarExpr:
			target(e.X)
		case *ast.ParenExpr:
			target(e.X)
		}
	}
	for _, files := range tr.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if _, method := tr.info.Uses[sel.Sel].(*types.Func); method {
							target(sel.X)
						}
					}
				case *ast.CompositeLit:
					s, ok := tr.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, keyed := e.(*ast.KeyValueExpr); keyed {
							mark(tr.info.Uses[kv.Key.(*ast.Ident)])
						} else {
							mark(s.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	return set
}

// sourceTree type-checks the packages under one directory from source
// (non-test files only), naming each "mcudist" plus its path under the
// directory: bench/ is the module mcudist/bench, so one mapping covers
// both modules. Other imports come from the standard library.
type sourceTree struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func loadTree(root string) (*sourceTree, error) {
	tr := &sourceTree{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		tr.dirs[strings.TrimSuffix("mcudist/"+filepath.ToSlash(rel), "/.")] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range tr.dirs {
		if _, err := tr.Import(ip); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// Import type-checks a tree package on first use (nil for a directory
// without Go files) and hands any other path to the standard-library
// importer.
func (tr *sourceTree) Import(path string) (*types.Package, error) {
	if p, ok := tr.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := tr.dirs[path]
	if !ok {
		return tr.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		tr.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(tr.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: tr}
	p, err := conf.Check(path, tr.fset, files, tr.info)
	if err != nil {
		return nil, err
	}
	tr.pkgs[path], tr.files[path] = p, files
	return p, nil
}

// decl is one top-level function, method or type, or one struct
// field, under internal/.
type decl struct {
	name string // e.g. internal/perfsim.(*Sim).hops, internal/fleet.Options.MaxBatch
	obj  types.Object
}

// unreached walks references from the roots and returns, sorted by
// name, every internal/ declaration it never reaches.
func (tr *sourceTree) unreached() ([]decl, error) {
	stdIfaces, err := tr.stdInterfaces()
	if err != nil {
		return nil, err
	}
	nodes := map[types.Object][]ast.Node{} // every top-level declaration
	var methods []*types.Func
	var internal []decl
	for ip, files := range tr.files {
		rel := strings.TrimPrefix(ip, "mcudist/")
		candidate := func(name string, obj types.Object) {
			if strings.HasPrefix(rel, "internal/") {
				internal = append(internal, decl{rel + "." + name, obj})
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := tr.info.Defs[d.Name]
					nodes[obj] = append(nodes[obj], d)
					switch {
					case d.Recv != nil:
						methods = append(methods, obj.(*types.Func))
						candidate(recvString(d.Recv.List[0].Type)+"."+d.Name.Name, obj)
					case d.Name.Name != "init":
						candidate(d.Name.Name, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := tr.info.Defs[s.Name]
							nodes[obj] = append(nodes[obj], s)
							candidate(s.Name.Name, obj)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := tr.info.Defs[n]
								nodes[obj] = append(nodes[obj], s)
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	ifaceCalls := map[string]bool{}
	var work []ast.Node
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls[fn.Name()] = true
				return
			}
		}
		if ns, ok := nodes[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, ns...)
		}
	}

	// Roots: every main function, and the initialization of every
	// package its program imports, its own package included.
	inited := map[*types.Package]bool{}
	var initPkg func(p *types.Package)
	initPkg = func(p *types.Package) {
		if inited[p] {
			return
		}
		inited[p] = true
		for _, imp := range p.Imports() {
			initPkg(imp)
		}
		for _, f := range tr.files[p.Path()] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						work = append(work, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, d)
					}
				}
			}
		}
	}
	for _, p := range tr.pkgs {
		if p != nil && p.Name() == "main" {
			initPkg(p)
			mark(p.Scope().Lookup("main"))
		}
	}

	for len(work) > 0 {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && tr.info.Uses[id] != nil {
					mark(tr.info.Uses[id])
				}
				return true
			})
		}
		// A method of a reached type is reached when a call through an
		// interface may land on it.
		for _, m := range methods {
			recv := m.Signature().Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if ok && reached[named.Obj()] && (ifaceCalls[m.Name()] || satisfies(named, m.Name(), stdIfaces)) {
				mark(m)
			}
		}
	}

	var out []decl
	for _, d := range internal {
		if !reached[d.obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// recvString renders a method receiver as T or (*T), dropping type
// parameters.
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(e.X) + ")"
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return fmt.Sprintf("%T", e)
}

// stdInterfaces returns the standard-library interfaces through which
// the runtime and the standard library call a program's methods.
func (tr *sourceTree) stdInterfaces() ([]*types.Interface, error) {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, n := range []struct{ pkg, name string }{
		{"fmt", "Stringer"},
		{"encoding", "TextMarshaler"},
		{"encoding", "TextUnmarshaler"},
	} {
		p, err := tr.std.Import(n.pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Scope().Lookup(n.name).Type().Underlying().(*types.Interface))
	}
	return out, nil
}

// satisfies reports whether T or *T implements one of ifaces that
// declares a method named name.
func satisfies(t *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

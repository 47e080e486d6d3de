package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode flags every function, method and package-level var or const in
// scope that no loaded non-test code uses. The loader never parses
// *_test.go files, so a declaration only tests use is dead here too: a
// test-only hook belongs in a _test.go file. A use is any resolved
// reference (a call, a method value, a function passed as a value, a read
// of a var or const), with generic instantiations traced back to their
// declaration; references from inside the declaration itself do not
// count, so a function that only calls itself is dead.
//
// A const in an iota group is used when any const of its group is:
// deleting an unreferenced member would renumber its siblings.
//
// Exempt are main and init, and every method whose receiver type (T or
// *T) implements an interface that declares the method — dispatch through
// an interface is invisible to a static use scan. The interfaces come from
// every loaded package, their transitive imports (the standard library
// included), and the universe's error. A generic receiver type implements
// an interface when one of its instantiations in loaded code does.
func DeadCode(scope ...string) *Analyzer {
	a := &Analyzer{
		Name:  "deadcode",
		Doc:   "functions, methods and package-level vars and consts must have a use outside tests and their own declaration",
		Scope: scope,
	}
	a.RunModule = runDeadCode
	return a
}

func runDeadCode(mp *ModulePass) {
	used := collectUses(mp.Pkgs)
	ifaces, insts := collectInterfaces(mp.Pkgs)
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Syntax {
			if !scopeAdmits(mp.analyzer, fileOf(pkg.Fset, f), pkg.PkgPath) {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					reportDeadValues(mp, pkg, gd, used)
					continue
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] {
					continue
				}
				if fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					continue
				}
				if fd.Recv != nil && implementsDeclaring(fn, ifaces[fn.Name()], insts) {
					continue
				}
				mp.Reportf(pkg, fd.Name.Pos(), "%s has no use outside tests and its own body; delete it", funcName(fn))
			}
		}
	}
}

// reportDeadValues reports the package-level vars and consts of gd that
// no loaded non-test code uses.
func reportDeadValues(mp *ModulePass, pkg *Package, gd *ast.GenDecl, used map[types.Object]bool) {
	if gd.Tok != token.VAR && gd.Tok != token.CONST {
		return
	}
	var names []*ast.Ident
	usesIota, groupUsed := false, false
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		for _, name := range vs.Names {
			if name.Name != "_" {
				names = append(names, name)
				groupUsed = groupUsed || used[pkg.Info.Defs[name]]
			}
		}
		for _, v := range vs.Values {
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					usesIota = true
				}
				return !usesIota
			})
		}
	}
	if gd.Tok == token.CONST && usesIota && groupUsed {
		return
	}
	for _, name := range names {
		obj := pkg.Info.Defs[name]
		if obj == nil || used[obj] {
			continue
		}
		mp.Reportf(pkg, name.Pos(), "%s.%s has no use outside tests and its own declaration; delete it", pkg.Types.Name(), name.Name)
	}
}

// collectUses returns every function (resolved to its generic origin) and
// every package-level var and const referenced from loaded code. A
// reference inside a declaration does not count as a use of what that
// declaration declares.
func collectUses(pkgs []*Package) map[types.Object]bool {
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				self := make(map[types.Object]bool)
				switch d := decl.(type) {
				case *ast.FuncDecl:
					self[pkg.Info.Defs[d.Name]] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, name := range vs.Names {
								self[pkg.Info.Defs[name]] = true
							}
						}
					}
				}
				mark := func(obj types.Object) {
					switch o := obj.(type) {
					case *types.Func:
						obj = o.Origin()
					case *types.Var, *types.Const:
						if o.Pkg() == nil || o.Parent() != o.Pkg().Scope() {
							return // not package-level
						}
					default:
						return
					}
					if !self[obj] {
						used[obj] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						mark(pkg.Info.Uses[n])
					case *ast.SelectorExpr:
						if sel, ok := pkg.Info.Selections[n]; ok {
							mark(sel.Obj())
						}
					}
					return true
				})
			}
		}
	}
	return used
}

// collectInterfaces indexes, by method name, every interface type the
// loaded packages can see: the named interfaces of each package and its
// transitive imports, every interface type in loaded code, and error. It
// also returns the instantiations of generic named types that loaded code
// uses, keyed by their generic origin.
func collectInterfaces(pkgs []*Package) (map[string][]*types.Interface, map[*types.Named][]*types.Named) {
	out := make(map[string][]*types.Interface)
	insts := make(map[*types.Named][]*types.Named)
	seen := make(map[types.Type]bool)
	add := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if seen[t] {
			return
		}
		seen[t] = true
		if named, ok := t.(*types.Named); ok && named.TypeArgs().Len() > 0 {
			insts[named.Origin()] = append(insts[named.Origin()], named)
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())

	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // generic interfaces are only checkable once instantiated
			}
			add(tn.Type())
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	return out, insts
}

// implementsDeclaring reports whether fn's receiver type, as a value or a
// pointer, implements one of ifaces (each of which declares a method named
// like fn). A generic receiver is checked through its instantiations.
func implementsDeclaring(fn *types.Func, ifaces []*types.Interface, insts map[*types.Named][]*types.Named) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	recvs := []types.Type{recv}
	if named, ok := recv.(*types.Named); ok && named.TypeArgs().Len() > 0 {
		recvs = recvs[:0]
		for _, inst := range insts[named.Origin()] {
			recvs = append(recvs, inst)
		}
	}
	for _, t := range recvs {
		ptr := types.NewPointer(t)
		for _, it := range ifaces {
			if types.Implements(t, it) || types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

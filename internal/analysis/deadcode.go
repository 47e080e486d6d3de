package analysis

import (
	"go/ast"
	"go/types"
)

// DeadCode flags every function and method in scope that no loaded
// non-test code uses. The loader never parses *_test.go files, so a
// function whose only callers are tests is dead here too: a test-only hook
// belongs in a _test.go file. A use is any resolved reference (a call, a
// method value, a function passed as a value), with generic instantiations
// traced back to their declaration; references from inside the function's
// own body do not count, so a function that only calls itself is dead.
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
		Doc:   "functions and methods must have a use outside tests and their own body",
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

// collectUses returns every function object referenced from loaded code,
// resolved to its generic origin. A reference inside a function's own
// declaration does not count as a use of that function.
func collectUses(pkgs []*Package) map[*types.Func]bool {
	used := make(map[*types.Func]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = pkg.Info.Defs[fd.Name].(*types.Func)
				}
				mark := func(obj types.Object) {
					if fn, ok := obj.(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
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

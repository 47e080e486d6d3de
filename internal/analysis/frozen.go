package analysis

import (
	"go/ast"
	"go/types"
)

// FrozenDirective marks a publish point: on a function or method, every
// slice-typed result is published read-only (itemset.Set.Slice); on a
// struct field, every slice reachable through the field is a copy-on-write
// posting that must be replaced, never mutated in place (the columnar
// images the frozen graph, text index and vector store serve from, which
// may alias mapped segment files).
const FrozenDirective = "//magnet:frozen"

// Facts the frozen analyzer derives and shares through the store. Producer
// and field facts carry the publish point's display name as their value;
// the mutates fact carries a []bool over the function's parameters.
const (
	FrozenProducerFact = "frozen-producer"
	FrozenFieldFact    = "frozen-field"
	MutatesParamsFact  = "mutates-params"
)

// Frozen enforces publish-then-freeze interprocedurally: a slice value that
// flowed out of a //magnet:frozen publish point must never be written again
// — not by index assignment, not by append (growth in place can write the
// shared backing array), not by copy into it, not by an in-place sort, and
// not by passing it into a parameter some callee mutates. Mutating callees
// are discovered by a cross-package fixpoint over the call graph, and
// functions that return a frozen value verbatim become publish points
// themselves, so wrapping an accessor does not launder the invariant away.
//
// Whole-value replacement stays legal: `g.postings[k] = newSlice` is the
// copy-on-write discipline, `g.postings[k][i] = v` is the bug.
func Frozen() *Analyzer {
	a := &Analyzer{
		Name: "frozen",
		Doc:  "slices published by //magnet:frozen producers/fields must never be mutated in place",
	}
	a.RunModule = runFrozen
	return a
}

func runFrozen(mp *ModulePass) {
	collectFrozenAnnotations(mp)
	deriveMutatesParams(mp)
	deriveProducers(mp)
	for _, n := range mp.Graph.Funcs() {
		if n.Decl.Body != nil {
			reportFrozen(mp, n)
		}
	}
}

// collectFrozenAnnotations seeds the fact store from //magnet:frozen
// directives on function declarations and struct fields.
func collectFrozenAnnotations(mp *ModulePass) {
	for _, n := range mp.Graph.Funcs() {
		if HasDirective(n.Decl.Doc, FrozenDirective) {
			mp.Facts.Set(n.Fn, FrozenProducerFact, n.Name())
		}
	}
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(node ast.Node) bool {
				ts, ok := node.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !HasDirective(field.Doc, FrozenDirective) && !HasDirective(field.Comment, FrozenDirective) {
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							mp.Facts.Set(obj, FrozenFieldFact, pkg.Types.Name()+"."+ts.Name.Name+"."+name.Name)
						}
					}
				}
				return true
			})
		}
	}
}

// sortMutators lists standard-library in-place mutators by package path and
// function name (the mutated argument is always the first).
var sortMutators = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Ints": true, "Strings": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true, "Reverse": true},
}

// isExternalMutator reports whether fn is a known stdlib function that
// mutates its first argument in place.
func isExternalMutator(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return sortMutators[fn.Pkg().Path()][fn.Name()]
}

// deriveMutatesParams computes, to a cross-package fixpoint, which slice
// parameters each function writes through — directly (index assignment,
// append, copy, in-place sort) or by handing the parameter to a callee
// known to mutate it.
func deriveMutatesParams(mp *ModulePass) {
	Propagate(mp.Graph, func(n *FuncNode) bool {
		if n.Decl.Body == nil {
			return false
		}
		idx := paramIndexes(n)
		if len(idx) == 0 {
			return false
		}
		cur, _ := mp.Facts.Get(n.Fn, MutatesParamsFact)
		mut, _ := cur.([]bool)
		if mut == nil {
			mut = make([]bool, n.Fn.Type().(*types.Signature).Params().Len())
		}
		changed := false
		mark := func(e ast.Expr) {
			if i, ok := idx[sliceRootObj(n.Pkg, e)]; ok && !mut[i] {
				mut[i] = true
				changed = true
			}
		}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			switch s := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if ix, ok := unparen(lhs).(*ast.IndexExpr); ok && isSliceType(n.Pkg.Info.TypeOf(ix.X)) {
						mark(ix.X)
					}
				}
			case *ast.CallExpr:
				forEachMutatedArg(n.Pkg, s, mp.Facts, mark)
			}
			return true
		})
		if changed {
			mp.Facts.Set(n.Fn, MutatesParamsFact, mut)
		}
		return changed
	})
}

// forEachMutatedArg calls mark(arg) for every argument position of call
// that the callee is known to write through: the append/copy built-ins,
// stdlib in-place sorts, and any function carrying a mutates-params fact.
func forEachMutatedArg(pkg *Package, call *ast.CallExpr, facts *Facts, mark func(ast.Expr)) {
	if len(call.Args) == 0 {
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" || b.Name() == "copy" {
				mark(call.Args[0])
			}
			return
		}
	}
	fn := CalleeOf(pkg, call)
	if fn == nil {
		return
	}
	if isExternalMutator(fn) {
		mark(call.Args[0])
		return
	}
	fact, ok := facts.Get(fn, MutatesParamsFact)
	if !ok {
		return
	}
	mut := fact.([]bool)
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		j := i
		if sig.Variadic() && i >= np-1 {
			j = np - 1
		}
		if j < len(mut) && mut[j] {
			mark(arg)
		}
	}
}

// paramIndexes maps each parameter object of n to its signature index.
func paramIndexes(n *FuncNode) map[types.Object]int {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		out[sig.Params().At(i)] = i
	}
	return out
}

// sliceRootObj unwraps index/slice/paren wrapping and returns the root
// identifier's object (nil when the expression is not identifier-rooted).
// Selector-rooted expressions return nil: a write through p.field mutates
// the field's referent, not the parameter binding itself.
func sliceRootObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return pkg.Info.Uses[x]
		default:
			return nil
		}
	}
}

// deriveProducers extends the annotated publish points: any function whose
// return statement hands back a frozen value in a slice-typed position is
// itself a producer. Runs to a fixpoint because producers feed the taint
// that discovers more producers.
func deriveProducers(mp *ModulePass) {
	for {
		changed := false
		for _, n := range mp.Graph.Funcs() {
			if n.Decl.Body == nil || mp.Facts.Has(n.Fn, FrozenProducerFact) {
				continue
			}
			taint := computeFrozenTaint(mp, n)
			found := ""
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				ret, ok := node.(*ast.ReturnStmt)
				if !ok || found != "" {
					return true
				}
				for _, res := range ret.Results {
					if isSliceType(n.Pkg.Info.TypeOf(res)) {
						if origin := frozenOrigin(mp, n.Pkg, res, taint); origin != "" {
							found = origin
							break
						}
					}
				}
				return true
			})
			if found != "" {
				mp.Facts.Set(n.Fn, FrozenProducerFact, found)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// frozenTaint records, per local variable, the publish point its value (or
// pointee, for pointer-to-slice locals) flowed from.
type frozenTaint struct {
	value map[types.Object]string
	deref map[types.Object]string
}

// computeFrozenTaint runs the intraprocedural flow: locals assigned from
// frozen expressions (producer calls, frozen-field reads, other tainted
// locals — possibly through indexing, slicing or ranging) become frozen
// themselves. Iterates to a local fixpoint so chains of assignments
// converge regardless of source order.
func computeFrozenTaint(mp *ModulePass, n *FuncNode) *frozenTaint {
	t := &frozenTaint{value: make(map[types.Object]string), deref: make(map[types.Object]string)}
	pkg := n.Pkg
	for {
		changed := false
		set := func(m map[types.Object]string, obj types.Object, origin string) {
			if obj != nil && origin != "" && m[obj] == "" {
				m[obj] = origin
				changed = true
			}
		}
		assign := func(lhs, rhs ast.Expr) {
			origin := frozenOrigin(mp, pkg, rhs, t)
			if origin == "" {
				return
			}
			switch l := unparen(lhs).(type) {
			case *ast.Ident:
				set(t.value, pkg.Info.Defs[l], origin)
				set(t.value, pkg.Info.Uses[l], origin)
			case *ast.StarExpr:
				if id, ok := unparen(l.X).(*ast.Ident); ok {
					set(t.deref, pkg.Info.Uses[id], origin)
				}
			}
		}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			switch s := node.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						assign(s.Lhs[i], s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i := range s.Names {
						assign(s.Names[i], s.Values[i])
					}
				}
			case *ast.RangeStmt:
				if s.Value != nil {
					vt := pkg.Info.TypeOf(s.Value)
					if isSliceType(vt) || isMapType(vt) {
						if origin := frozenOrigin(mp, pkg, s.X, t); origin != "" {
							if id, ok := unparen(s.Value).(*ast.Ident); ok {
								set(t.value, pkg.Info.Defs[id], origin)
								set(t.value, pkg.Info.Uses[id], origin)
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			return t
		}
	}
}

// frozenOrigin returns the publish point e's value flowed from, or "" when
// e is not provably frozen. Only slice- and map-typed expressions carry
// frozen-ness (elements of a frozen []uint32 are plain values).
func frozenOrigin(mp *ModulePass, pkg *Package, e ast.Expr, t *frozenTaint) string {
	if ty := pkg.Info.TypeOf(e); !isSliceType(ty) && !isMapType(ty) {
		return ""
	}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			if id, ok := unparen(x.X).(*ast.Ident); ok {
				if origin := t.deref[pkg.Info.Uses[id]]; origin != "" {
					return origin
				}
			}
			return ""
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[x]; ok {
				if origin, ok := mp.Facts.Get(sel.Obj(), FrozenFieldFact); ok {
					return origin.(string)
				}
			}
			if origin, ok := mp.Facts.Get(pkg.Info.Uses[x.Sel], FrozenFieldFact); ok {
				return origin.(string)
			}
			// A column of a frozen struct-valued field (a columnar image)
			// is frozen with it.
			if _, ok := typeUnder(pkg.Info.TypeOf(x.X)).(*types.Struct); ok {
				e = x.X
				continue
			}
			return ""
		case *ast.Ident:
			if origin := t.value[pkg.Info.Uses[x]]; origin != "" {
				return origin
			}
			return ""
		case *ast.CallExpr:
			if fn := CalleeOf(pkg, x); fn != nil {
				if origin, ok := mp.Facts.Get(fn, FrozenProducerFact); ok {
					return origin.(string)
				}
			}
			return ""
		default:
			return ""
		}
	}
}

// reportFrozen flags every in-place write to a frozen value in n's body.
func reportFrozen(mp *ModulePass, n *FuncNode) {
	pkg := n.Pkg
	taint := computeFrozenTaint(mp, n)
	origin := func(e ast.Expr) string { return frozenOrigin(mp, pkg, e, taint) }
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				ix, ok := unparen(lhs).(*ast.IndexExpr)
				if !ok || !isSliceType(pkg.Info.TypeOf(ix.X)) {
					continue
				}
				if o := origin(ix.X); o != "" {
					mp.Reportf(pkg, lhs.Pos(), "index assignment writes into a slice published by %s; copy-on-write: build a new slice and replace it", o)
				}
			}
		case *ast.CallExpr:
			reportFrozenCall(mp, n, s, origin)
		}
		return true
	})
}

// reportFrozenCall flags calls that write through a frozen argument:
// append/copy built-ins, stdlib in-place sorts, and callees whose
// mutates-params fact covers the argument's position.
func reportFrozenCall(mp *ModulePass, n *FuncNode, call *ast.CallExpr, origin func(ast.Expr) string) {
	pkg := n.Pkg
	if len(call.Args) == 0 {
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if o := origin(call.Args[0]); o != "" {
					mp.Reportf(pkg, call.Pos(), "append may write into the backing array of a slice published by %s; copy first", o)
				}
			case "copy":
				if o := origin(call.Args[0]); o != "" {
					mp.Reportf(pkg, call.Pos(), "copy writes into a slice published by %s", o)
				}
			}
			return
		}
	}
	fn := CalleeOf(pkg, call)
	if fn == nil {
		return
	}
	if isExternalMutator(fn) {
		if o := origin(call.Args[0]); o != "" {
			mp.Reportf(pkg, call.Pos(), "in-place %s.%s of a slice published by %s", fn.Pkg().Name(), fn.Name(), o)
		}
		return
	}
	fact, ok := mp.Facts.Get(fn, MutatesParamsFact)
	if !ok {
		return
	}
	mut := fact.([]bool)
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		j := i
		if sig.Variadic() && i >= np-1 {
			j = np - 1
		}
		if j >= len(mut) || !mut[j] {
			continue
		}
		if o := origin(arg); o != "" {
			mp.Reportf(pkg, arg.Pos(), "passes a slice published by %s to parameter %q of %s, which mutates it", o, sig.Params().At(j).Name(), fn.Name())
		}
	}
}

func isSliceType(t types.Type) bool {
	_, ok := typeUnder(t).(*types.Slice)
	return ok
}

func isMapType(t types.Type) bool {
	_, ok := typeUnder(t).(*types.Map)
	return ok
}

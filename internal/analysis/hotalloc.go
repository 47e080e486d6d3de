package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotDirective marks a function whose body — and everything it transitively
// calls — must not allocate. It is seeded onto the engine's per-step inner
// loops: itemset set algebra, query predicate evaluation, obs recording,
// index posting/vector lookups, the facet-summarization kernel, and the
// web page writers.
const HotDirective = "//magnet:hot"

// HotFact is recorded on every function reachable from a //magnet:hot seed.
const HotFact = "hot"

// HotAlloc enforces the allocation-free discipline of annotated hot paths
// interprocedurally: starting from every function marked //magnet:hot, it
// walks the static call graph and reports any allocation it can prove in a
// reachable body — function literals that capture variables (captured
// closures are heap-allocated), interface boxing at call, conversion and
// return sites, string⇄byte-slice conversions, fmt calls, string
// concatenation, map/slice/new allocations, and
// append growth on slices not rooted in a caller-provided parameter (the
// amortized-buffer pattern the engine's *Into operations use). Diagnostics
// name the call chain from the hot seed to the allocation.
//
// Static blind spots are deliberate: calls through interfaces or function
// values do not resolve, and bodies outside the loaded packages (stdlib)
// are leaves — which is why hot annotations sit on concrete methods.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "functions marked //magnet:hot, and their transitive callees, must not allocate",
	}
	a.RunModule = runHotAlloc
	return a
}

func runHotAlloc(mp *ModulePass) {
	var seeds []*FuncNode
	for _, n := range mp.Graph.Funcs() {
		if HasDirective(n.Decl.Doc, HotDirective) {
			seeds = append(seeds, n)
		}
	}
	if len(seeds) == 0 {
		return
	}
	reach := mp.Graph.ReachableFrom(seeds)
	for _, n := range reach.Nodes() {
		mp.Facts.Set(n.Fn, HotFact, true)
	}
	for _, n := range reach.Nodes() {
		if n.Decl.Body != nil {
			checkHotFunc(mp, n, reach)
		}
	}
}

func checkHotFunc(mp *ModulePass, n *FuncNode, reach *Reach) {
	pkg := n.Pkg
	chain := strings.Join(reach.Chain(n), " → ")
	report := func(pos token.Pos, format string, args ...any) {
		mp.Reportf(pkg, pos, "%s [hot path: %s]", fmt.Sprintf(format, args...), chain)
	}
	params := paramObjects(pkg, n.Decl)
	// sigs holds the signature each return statement fills: the
	// declaration's, or that of the innermost enclosing function literal.
	sigs := []*types.Signature{n.Fn.Type().(*types.Signature)}
	var stack []ast.Node
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, node)
		switch e := node.(type) {
		case *ast.FuncLit:
			if caps := capturedVars(pkg, n.Decl, e); len(caps) > 0 {
				report(e.Pos(), "function literal captures %s; capturing closures allocate", strings.Join(caps, ", "))
			}
			sig, _ := pkg.Info.TypeOf(e).(*types.Signature)
			sigs = append(sigs, sig)
		case *ast.ReturnStmt:
			checkReturnBoxing(report, pkg, e, sigs[len(sigs)-1])
		case *ast.CompositeLit:
			switch typeUnder(pkg.Info.TypeOf(e)).(type) {
			case *types.Map:
				report(e.Pos(), "map literal allocates")
			case *types.Slice:
				report(e.Pos(), "slice literal allocates")
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(pkg.Info.TypeOf(e)) {
				report(e.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(pkg.Info.TypeOf(e.Lhs[0])) {
				report(e.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			checkHotCall(report, pkg, e, params)
		}
		return true
	})
	if HasDirective(n.Decl.Doc, HotDirective) {
		checkHotLoops(pkg, n.Decl.Body, report)
	}
}

// checkHotLoops flags dynamically dispatched (interface-method) calls
// inside the loops of a *directly annotated* hot function. One dynamic
// dispatch per step is survivable; one per loop iteration multiplies by
// the posting length — and when the callee allocates (a Key() that
// builds its string), the per-element allocation storm is invisible to
// the boxing checks because the dispatch target never resolves
// statically. Query.With re-deriving p.Key() against every existing term
// was the motivating case: derive once, then loop over the cached
// results. The rule stays scoped to seeds rather than transitive callees
// because hoisting is the *caller's* local discipline — a callee cannot
// know which of its calls sit inside someone else's loop.
func checkHotLoops(pkg *Package, body *ast.BlockStmt, report func(token.Pos, string, ...any)) {
	ast.Inspect(body, func(node ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := node.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		ast.Inspect(loopBody, func(inner ast.Node) bool {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pkg.Info.Selections[sel]
			if !ok || s.Kind() != types.MethodVal || !types.IsInterface(s.Recv()) {
				return true
			}
			report(call.Pos(), "interface method %s.%s called inside a loop dispatches dynamically every iteration; hoist or cache it outside the loop",
				typeName(pkg, s.Recv()), sel.Sel.Name)
			return true
		})
		// The nested Inspect already covered inner loops; stop the outer
		// walk here so each call reports once.
		return false
	})
}

// checkHotCall inspects one call expression in a hot body: allocating
// built-ins, conversions that box into interfaces, fmt calls, and
// interface-typed parameters receiving concrete arguments.
func checkHotCall(report func(token.Pos, string, ...any), pkg *Package, call *ast.CallExpr, params map[types.Object]bool) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				switch typeUnder(pkg.Info.TypeOf(call)).(type) {
				case *types.Map:
					report(call.Pos(), "make(map) allocates")
				case *types.Slice:
					report(call.Pos(), "make(slice) allocates")
				case *types.Chan:
					report(call.Pos(), "make(chan) allocates")
				}
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !rootedIn(pkg, call.Args[0], params) {
					report(call.Pos(), "append growth on a slice not rooted in a parameter allocates; take a caller-provided buffer")
				}
			}
			return
		}
	}
	// Conversion to an interface type boxes its operand; between strings
	// and byte or rune slices it copies into a new allocation.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		at := pkg.Info.TypeOf(call.Args[0])
		switch {
		case interfaceTarget(tv.Type) && boxes(at):
			report(call.Pos(), "conversion boxes %s into %s", typeName(pkg, at), typeName(pkg, tv.Type))
		case stringish(tv.Type) && isByteOrRuneSlice(at), isByteOrRuneSlice(tv.Type) && stringish(at):
			report(call.Pos(), "conversion from %s to %s copies into a new allocation", typeName(pkg, at), typeName(pkg, tv.Type))
		}
		return
	}
	fn := CalleeOf(pkg, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), "call to fmt.%s allocates and formats", fn.Name())
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	checkBoxingArgs(report, pkg, call, sig)
}

// checkBoxingArgs flags concrete, non-pointer-shaped arguments passed to
// interface-typed parameters — each such argument heap-allocates its boxed
// copy at the call site.
func checkBoxingArgs(report func(token.Pos, string, ...any), pkg *Package, call *ast.CallExpr, sig *types.Signature) {
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type() // arg is already the slice
			} else if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !interfaceTarget(pt) {
			continue
		}
		if at := pkg.Info.TypeOf(arg); boxes(at) {
			report(arg.Pos(), "argument boxes %s into %s", typeName(pkg, at), typeName(pkg, pt))
		}
	}
}

// checkReturnBoxing flags concrete, non-pointer-shaped results returned
// into interface-typed result positions of sig.
func checkReturnBoxing(report func(token.Pos, string, ...any), pkg *Package, ret *ast.ReturnStmt, sig *types.Signature) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return // naked return, or a multi-value call spread over the results
	}
	for i, res := range ret.Results {
		rt := sig.Results().At(i).Type()
		if at := pkg.Info.TypeOf(res); interfaceTarget(rt) && boxes(at) {
			report(res.Pos(), "return boxes %s into %s", typeName(pkg, at), typeName(pkg, rt))
		}
	}
}

// stringish reports whether t is a string type, or a type parameter whose
// constraint admits only string types (~string).
func stringish(t types.Type) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return isStringType(t)
	}
	iface, _ := tp.Constraint().Underlying().(*types.Interface)
	if iface == nil || iface.NumEmbeddeds() == 0 {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		u, ok := iface.EmbeddedType(i).(*types.Union)
		if !ok {
			return false
		}
		for j := 0; j < u.Len(); j++ {
			if !isStringType(u.Term(j).Type()) {
				return false
			}
		}
	}
	return true
}

// isByteOrRuneSlice reports whether t is a []byte or []rune type.
func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := typeUnder(t).(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// interfaceTarget reports whether a value converted or passed to type t is
// stored as an interface. A type parameter counts unless its constraint
// lists concrete types (~string): its type arguments are then never
// interfaces, so the conversion is a plain value conversion.
func interfaceTarget(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		iface, _ := tp.Constraint().Underlying().(*types.Interface)
		return iface == nil || iface.IsMethodSet()
	}
	return types.IsInterface(t)
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: concrete and not pointer-shaped (pointers, maps, chans
// and funcs are stored directly in the interface word).
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer, types.Invalid:
			return false
		}
	case *types.Tuple:
		return false
	}
	return true
}

// paramObjects collects the parameter and receiver objects of fd and of
// every function literal inside it — the slice roots append may grow
// without a finding (caller-provided buffers amortize their growth).
func paramObjects(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addList(fd.Recv)
	addList(fd.Type.Params)
	if fd.Body != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				addList(lit.Type.Params)
			}
			return true
		})
	}
	return out
}

// rootedIn reports whether e, stripped of index/slice/deref/selector
// wrapping, bottoms out in one of the given objects.
func rootedIn(pkg *Package, e ast.Expr, objs map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return objs[pkg.Info.Uses[x]]
		default:
			return false
		}
	}
}

// capturedVars returns the names of variables a function literal captures
// from its enclosing function (sorted, deduplicated): objects declared
// inside the enclosing declaration but before/outside the literal.
func capturedVars(pkg *Package, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos < fd.Pos() || pos >= fd.End() {
			return true // package-level or foreign
		}
		if pos >= lit.Pos() && pos < lit.End() {
			return true // the literal's own declaration
		}
		if !seen[obj.Name()] {
			seen[obj.Name()] = true
			out = append(out, obj.Name())
		}
		return true
	})
	sort.Strings(out)
	return out
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isStringType(t types.Type) bool {
	b, ok := typeUnder(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeName(pkg *Package, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(pkg.Types))
}

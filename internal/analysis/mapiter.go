package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter guards the determinism invariant behind Magnet's presentation
// rules (§4.3: advisor and facet ordering must be stable run to run): a
// `range` over a map whose body accumulates a slice with append must be
// followed, somewhere later in the same function, by a sort of that slice.
// Go randomizes map iteration order, so an unsorted accumulation leaks
// nondeterminism straight into rendered or ranked output.
//
// A second rule covers float sums: a `+=` or `-=` of a float variable
// declared outside a `range` over a map adds its terms in iteration order.
// Float addition is not associative, so the sum's low bits change from run
// to run, and any ranking or equality test on it can flip. Such sums must
// run in a fixed order (sorted keys, or dense rows in ID order).
func MapIter() *Analyzer {
	a := &Analyzer{
		Name: "map-iter-determinism",
		Doc:  "slices accumulated from map iteration must be sorted before use; float sums must not follow map order",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files() {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				runMapIterFunc(pass, fd)
			}
		}
	}
	return a
}

func runMapIterFunc(pass *Pass, fd *ast.FuncDecl) {
	type accum struct {
		rng *ast.RangeStmt
		obj types.Object
	}
	var accums []accum
	floatSums := make(map[*ast.AssignStmt]bool) // reported once under nested map ranges
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMap(t) {
			return true
		}
		// Find `x = append(x, ...)` in the loop body where x is a plain
		// variable, and float `x += ...` / `x -= ...` into a variable
		// declared outside the loop.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN {
				if obj := pass.Pkg.Info.ObjectOf(lhs); obj != nil && isFloat(obj.Type()) &&
					(obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()) && !floatSums[as] {
					floatSums[as] = true
					pass.Reportf(as.Pos(), "float %q summed in map iteration order; map order is random, so the sum's low bits vary run to run — sum in a fixed order", lhs.Name)
				}
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
				return true
			}
			if obj := pass.Pkg.Info.ObjectOf(lhs); obj != nil {
				accums = append(accums, accum{rng, obj})
			}
			return true
		})
		return true
	})

	for _, ac := range accums {
		if sortedAfter(pass, fd.Body, ac.obj, ac.rng) {
			continue
		}
		pass.Reportf(ac.rng.Pos(), "range over map accumulates %q without a later sort; map order is random and §4.3 requires stable output", ac.obj.Name())
	}
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedAfter reports whether, after pos, body contains a sorting call
// (sort.*, slices.Sort*, or any callee whose name mentions sort) taking the
// accumulated variable as an argument.
func sortedAfter(pass *Pass, body *ast.BlockStmt, obj types.Object, pos ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos.End() {
			return true
		}
		var callee string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				callee = id.Name + "." + callee
			}
		default:
			return true
		}
		if !strings.Contains(strings.ToLower(callee), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.Pkg.Info.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

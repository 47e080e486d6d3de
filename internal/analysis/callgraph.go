package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural half of magnet-vet: a type-resolved
// static call graph over every loaded package plus a reachability walk.
// Analyzers that must follow an invariant across call boundaries (hotalloc,
// frozen, lockflow) run as module passes over this graph instead of one
// package at a time — the same move DataGuide-style structural summaries
// make for semistructured data: compute one whole-corpus structure once,
// then answer per-site questions against it.

// FuncNode is one function or method in the call graph. Functions declared
// inside the loaded packages carry their declaration and package; callees
// resolved into packages we did not parse (the standard library, interface
// methods) appear as leaf nodes with a nil Decl, where propagation stops.
type FuncNode struct {
	// Fn is the type-checker object; node identity. Never nil.
	Fn *types.Func
	// Decl is the syntax of the function, nil for external/bodyless callees.
	Decl *ast.FuncDecl
	// Pkg is the loaded package declaring the function, nil for external.
	Pkg *Package
	// Calls are the node's static call sites in source order.
	Calls []Call
}

// Name returns a compact human-readable name: "pkg.Func" or
// "pkg.(*T).Method" shapes reduced to "pkg.T.Method".
func (n *FuncNode) Name() string {
	return funcName(n.Fn)
}

// funcName renders fn as "pkg.Func" or "pkg.T.Method".
func funcName(fn *types.Func) string {
	name := fn.Name()
	if recv := recvTypeName(fn); recv != "" {
		name = recv + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// recvTypeName returns the bare receiver type name of a method ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// Call is one static call edge.
type Call struct {
	// Site is the call expression position in the caller.
	Site token.Pos
	// Expr is the call expression itself.
	Expr *ast.CallExpr
	// Callee is the resolved target.
	Callee *FuncNode
}

// CallGraph is the module's static call graph. Only direct calls resolve:
// a call through an interface method or a function value becomes an edge to
// the interface method's (bodyless) node or no edge at all — the documented
// blind spot of every static-dispatch analysis, which is why hot-path
// annotations sit on concrete methods.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	// list holds the declared (Decl != nil) nodes in deterministic order:
	// package load order, then file order, then declaration order.
	list []*FuncNode
}

// Funcs returns every declared function in deterministic order.
func (g *CallGraph) Funcs() []*FuncNode {
	return g.list
}

func (g *CallGraph) intern(fn *types.Func) *FuncNode {
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &FuncNode{Fn: fn}
	g.nodes[fn] = n
	return n
}

// BuildCallGraph constructs the call graph over pkgs. Function literals are
// attributed to their enclosing declared function: a call made inside a
// closure is an edge from the function that created the closure, which is
// the right granularity for reachability-style invariants.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.intern(fn)
				n.Decl = fd
				n.Pkg = pkg
				g.list = append(g.list, n)
				if fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(node ast.Node) bool {
					call, ok := node.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := CalleeOf(pkg, call)
					if callee == nil {
						return true
					}
					n.Calls = append(n.Calls, Call{Site: call.Pos(), Expr: call, Callee: g.intern(callee)})
					return true
				})
			}
		}
	}
	return g
}

// CalleeOf resolves the static target of a call expression to a function
// object: a plain identifier, a package-qualified function, or a method
// selection. Calls through function-typed values, built-ins and type
// conversions return nil.
func CalleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Reach holds the result of a reachability walk: for every node reached,
// the edge it was first discovered through (nil for seeds). Chain
// reconstructs the seed→node call path for diagnostics.
type Reach struct {
	parent map[*FuncNode]*reachStep
	order  []*FuncNode
}

type reachStep struct {
	from *FuncNode
	site token.Pos
}

// ReachableFrom walks call edges breadth-first from seeds, visiting only
// callees with bodies (Decl != nil). Seeds must be declared nodes. The walk
// is deterministic: seeds in given order, edges in source order.
func (g *CallGraph) ReachableFrom(seeds []*FuncNode) *Reach {
	r := &Reach{parent: make(map[*FuncNode]*reachStep)}
	queue := make([]*FuncNode, 0, len(seeds))
	for _, s := range seeds {
		if _, ok := r.parent[s]; ok || s == nil {
			continue
		}
		r.parent[s] = nil
		r.order = append(r.order, s)
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if c.Callee.Decl == nil {
				continue
			}
			if _, ok := r.parent[c.Callee]; ok {
				continue
			}
			r.parent[c.Callee] = &reachStep{from: n, site: c.Site}
			r.order = append(r.order, c.Callee)
			queue = append(queue, c.Callee)
		}
	}
	return r
}

// Nodes returns the reached nodes in discovery order.
func (r *Reach) Nodes() []*FuncNode {
	return r.order
}

// Chain returns the call path from the seed that first reached n down to n
// itself, as node names: ["pkg.Seed", "pkg.mid", "pkg.n"].
func (r *Reach) Chain(n *FuncNode) []string {
	var rev []string
	for cur := n; cur != nil; {
		rev = append(rev, cur.Name())
		step := r.parent[cur]
		if step == nil {
			break
		}
		cur = step.from
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

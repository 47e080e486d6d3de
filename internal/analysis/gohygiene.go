package analysis

import (
	"go/ast"
	"strings"
)

// goHygieneExempt marks the one package allowed to spawn goroutines: the
// worker pool. Everything else in scope fans out through internal/par, so
// the whole pipeline shares a single concurrency budget.
const goHygieneExempt = "internal/par"

// GoHygiene bans bare `go` statements in scoped code: all fan-out goes
// through the internal/par pool, which bounds concurrency, contains
// panics, and carries the par.* observability. internal/par itself is
// exempt (it is the implementation), as are test files (the loader never
// parses *_test.go) and commands outside the scope, which own their own
// process lifecycle.
func GoHygiene(scope ...string) *Analyzer {
	a := &Analyzer{
		Name:  "gohygiene",
		Doc:   "internal packages must fan out via internal/par, not bare go statements",
		Scope: scope,
	}
	a.Run = func(pass *Pass) {
		if strings.Contains(pass.Pkg.PkgPath, goHygieneExempt) {
			return
		}
		for _, f := range pass.Files() {
			if strings.Contains(fileOf(pass.Pkg.Fset, f), goHygieneExempt+"/") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "bare go statement: fan out through the internal/par pool (ForN/ForChunks) so concurrency stays bounded and panic-safe")
				}
				return true
			})
		}
	}
	return a
}

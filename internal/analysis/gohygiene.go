package analysis

import "go/ast"

// GoHygiene bans `go` statements in scoped code: internal packages start
// no goroutines, so every navigation step and every build runs on its
// caller's goroutine and a panic unwinds there. Test files (the loader
// never parses *_test.go) and commands outside the scope, which own their
// own process lifecycle, are not checked; a process-lifecycle goroutine
// inside the scope carries an ignore directive saying why.
func GoHygiene(scope ...string) *Analyzer {
	a := &Analyzer{
		Name:  "gohygiene",
		Doc:   "internal packages start no goroutines: no go statements",
		Scope: scope,
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files() {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "bare go statement: internal packages start no goroutines; run the work on the caller's goroutine")
				}
				return true
			})
		}
	}
	return a
}

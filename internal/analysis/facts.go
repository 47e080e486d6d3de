package analysis

import (
	"go/types"
)

// Facts is the cross-package fact store of the interprocedural engine: a
// map from type-checker objects to named facts that analyzers read and
// write across package boundaries. Because every package in a run is
// type-checked through one shared loader, a types.Object is one identity
// module-wide — a fact recorded while visiting internal/itemset is visible
// verbatim when an analyzer later inspects a call site in internal/facets.
//
// Facts are monotone by convention: an analyzer derives them to a fixpoint
// (see Propagate) and only ever adds, never retracts, so iteration order
// cannot change the result.
type Facts struct {
	m map[types.Object]map[string]any
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: make(map[types.Object]map[string]any)}
}

// Set records fact name = v on obj.
func (f *Facts) Set(obj types.Object, name string, v any) {
	facts := f.m[obj]
	if facts == nil {
		facts = make(map[string]any)
		f.m[obj] = facts
	}
	facts[name] = v
}

// Get returns the named fact on obj and whether it exists.
func (f *Facts) Get(obj types.Object, name string) (any, bool) {
	v, ok := f.m[obj][name]
	return v, ok
}

// Has reports whether obj carries the named fact.
func (f *Facts) Has(obj types.Object, name string) bool {
	_, ok := f.m[obj][name]
	return ok
}

// Propagate runs step over every declared function in the call graph until
// no step reports a change — the fixpoint driver for interprocedural facts
// (a function mutates its parameter if it passes it to a mutating
// parameter; a method requires a lock if it calls a method that does).
// step must be monotone: once it reports a fact it must keep holding.
func Propagate(g *CallGraph, step func(n *FuncNode) bool) {
	for {
		changed := false
		for _, n := range g.Funcs() {
			if step(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

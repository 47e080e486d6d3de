package qlang

import (
	"sync"
	"testing"

	"magnet/internal/datasets/recipes"
	"magnet/internal/schema"
)

// fuzzResolver builds one small recipes graph shared by every fuzz
// execution: the fuzzer explores the parser, not graph construction.
var (
	fuzzOnce sync.Once
	fuzzRes  *Resolver
)

func fuzzResolver() *Resolver {
	fuzzOnce.Do(func() {
		g := recipes.Build(recipes.Config{Recipes: 100, Seed: 1}).Freeze()
		fuzzRes = NewResolver(g, schema.NewStore(g))
	})
	return fuzzRes
}

// FuzzParse feeds arbitrary query strings through the full lex/parse/resolve
// pipeline. Invariants: Parse never panics, and a successful parse is
// deterministic — re-parsing the same source yields the same canonical
// query key.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`cuisine = Greek`,
		`cuisine = Greek AND servings >= 4 AND course = Dessert`,
		`cuisine = Greek OR cuisine = Mexican AND course = Dessert`,
		`(cuisine = Greek OR cuisine = Mexican) AND course = Dessert`,
		`cuisine = Greek AND NOT ingredient.group = Nuts`,
		`cuisine != Greek`,
		`servings >= 4`,
		`servings < 2`,
		`directions : walnut`,
		`"winter soup"`,
		`walnut`,
		// malformed corpus from TestParseErrors
		`cuisine ! Greek`,
		`(cuisine = Greek`,
		`servings >= soon`,
		`"unterminated`,
		`cuisine.`,
		``,
		"\x00\xff",
		`((((((((((a`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	r := fuzzResolver()
	f.Fuzz(func(t *testing.T, src string) {
		q1, err := Parse(src, r)
		if err != nil {
			return // rejecting garbage is the parser's job
		}
		q2, err := Parse(src, r)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded then failed: %v", src, err)
		}
		if q1.Key() != q2.Key() {
			t.Fatalf("Parse(%q) nondeterministic: %q vs %q", src, q1.Key(), q2.Key())
		}
	})
}

package query

import (
	"sort"
	"strings"

	"magnet/internal/itemset"
	"magnet/internal/rdf"
)

// AnyValueIn matches items having at least one value of Prop inside the
// given value collection — the §3.3 "apply the query to ... get recipes
// having an (using or) ingredient found in North America" move, where the
// user refined the *ingredients* collection and applied it back to the
// recipes.
type AnyValueIn struct {
	Prop rdf.IRI
	// Values is the refined value collection.
	Values []rdf.IRI
	// Name labels the value collection for display (e.g. "ingredients
	// found in North America").
	Name string
}

// Eval implements Predicate via one reverse-index probe per value; the
// posting lists are unioned through a bitmap.
func (p AnyValueIn) Eval(e *Engine) Set {
	b := itemset.NewBits(e.g.SubjectTable().Len())
	for _, v := range p.Values {
		b.AddSet(e.g.SubjectIDSet(p.Prop, v))
	}
	return e.setFromIDs(b.Extract())
}

// Describe implements Predicate.
func (p AnyValueIn) Describe(l Labeler) string {
	return l(p.Prop) + " has any of " + p.collectionName(l)
}

// Key implements Predicate.
func (p AnyValueIn) Key() string { return "anyin:" + string(p.Prop) + ":" + p.valuesKey() }

func (p AnyValueIn) collectionName(l Labeler) string {
	if p.Name != "" {
		return p.Name
	}
	return describeValues(p.Values, l)
}

func (p AnyValueIn) valuesKey() string { return valuesKey(p.Values) }

// AllValuesIn matches items whose *every* value of Prop lies inside the
// given collection — the "using and" variant ("recipes having all their
// ingredients found in North America"). Items without any value of Prop do
// not match (an empty ingredient list is not "all in North America" for
// navigation purposes: the user is filtering things that have the
// property).
type AllValuesIn struct {
	Prop   rdf.IRI
	Values []rdf.IRI
	Name   string
}

// Eval implements Predicate: candidates come from the reverse index (they
// must have at least one value in the set), then each candidate's full
// value list is checked for containment.
func (p AllValuesIn) Eval(e *Engine) Set {
	allowed := make([]string, len(p.Values))
	for i, v := range p.Values {
		allowed[i] = v.Key()
	}
	sort.Strings(allowed)
	inAllowed := func(k string) bool {
		i := sort.SearchStrings(allowed, k)
		return i < len(allowed) && allowed[i] == k
	}
	candidates := AnyValueIn{Prop: p.Prop, Values: p.Values}.Eval(e)
	kept := make([]uint32, 0, candidates.Len())
	candidates.IDs().ForEach(func(id uint32) bool {
		it := e.g.SubjectByID(id)
		for _, v := range e.g.Objects(it, p.Prop) {
			if !inAllowed(v.Key()) {
				return true
			}
		}
		kept = append(kept, id)
		return true
	})
	return e.setFromIDs(itemset.FromSorted(kept))
}

// Describe implements Predicate.
func (p AllValuesIn) Describe(l Labeler) string {
	name := p.Name
	if name == "" {
		name = describeValues(p.Values, l)
	}
	return l(p.Prop) + " all within " + name
}

// Key implements Predicate.
func (p AllValuesIn) Key() string { return "allin:" + string(p.Prop) + ":" + valuesKey(p.Values) }

func valuesKey(values []rdf.IRI) string {
	keys := make([]string, len(values))
	for i, v := range values {
		keys[i] = string(v)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func describeValues(values []rdf.IRI, l Labeler) string {
	n := len(values)
	show := values
	if n > 3 {
		show = values[:3]
	}
	parts := make([]string, len(show))
	for i, v := range show {
		parts[i] = l(v)
	}
	s := "{" + strings.Join(parts, ", ")
	if n > 3 {
		s += ", …"
	}
	return s + "}"
}

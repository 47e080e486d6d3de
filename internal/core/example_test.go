package core_test

import (
	"fmt"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Example shows the minimal Magnet lifecycle: build a graph, open the
// system, search, refine, and read the navigation pane's constraints.
func Example() {
	gb := rdf.NewBuilder()
	ns := "http://example.org/"
	book := rdf.IRI(ns + "Book")
	author := rdf.IRI(ns + "author")
	james := rdf.IRI(ns + "henry-james")
	gb.Add(james, rdf.Label, rdf.NewString("Henry James"))

	add := func(id, title string) rdf.IRI {
		b := rdf.IRI(ns + id)
		gb.Add(b, rdf.Type, book)
		gb.Add(b, rdf.DCTitle, rdf.NewString(title))
		gb.Add(b, author, james)
		return b
	}
	add("screw", "The Turn of the Screw")
	add("portrait", "The Portrait of a Lady")

	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Search("portrait")
	fmt.Println("found:", len(s.Items()))

	s.Refine(query.Property{Prop: author, Value: james}, blackboard.Filter)
	for _, c := range s.Pane().Constraints {
		fmt.Println("constraint:", c)
	}
	// Output:
	// found: 1
	// constraint: contains "portrait"
	// constraint: author = Henry James
}

// ExampleSession_Back demonstrates refinement-history undo.
func ExampleSession_Back() {
	gb := rdf.NewBuilder()
	it := rdf.IRI("http://e/x")
	gb.Add(it, rdf.Type, rdf.IRI("http://e/T"))
	gb.Add(it, rdf.DCTitle, rdf.NewString("only item"))

	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Search("nothing matches this")
	fmt.Println("after search:", len(s.Items()))
	s.Back()
	fmt.Println("after back:", len(s.Items()))
	// Output:
	// after search: 0
	// after back: 1
}

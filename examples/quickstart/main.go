// Quickstart: build a tiny semistructured repository by hand, open Magnet
// over it, and navigate — keyword search, refinement suggestions, and
// similarity. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/render"
)

const ns = "http://example.org/books#"

func main() {
	g := rdf.NewBuilder()

	class := rdf.IRI(ns + "Book")
	author := rdf.IRI(ns + "author")
	subject := rdf.IRI(ns + "subject")
	title := rdf.DCTitle

	add := func(id, titleText string, by rdf.IRI, topics ...rdf.IRI) {
		b := rdf.IRI(ns + id)
		g.Add(b, rdf.Type, class)
		g.Add(b, title, rdf.NewString(titleText))
		g.Add(b, author, by)
		for _, t := range topics {
			g.Add(b, subject, t)
		}
	}
	james := rdf.IRI(ns + "henry-james")
	g.Add(james, rdf.Label, rdf.NewString("Henry James"))
	other := rdf.IRI(ns + "william-gibson")
	g.Add(other, rdf.Label, rdf.NewString("William Gibson"))
	fiction := rdf.IRI(ns + "Fiction")
	g.Add(fiction, rdf.Label, rdf.NewString("Fiction"))
	biography := rdf.IRI(ns + "Biography")
	g.Add(biography, rdf.Label, rdf.NewString("Biography"))

	// The paper's intro example: books *about* James versus books *by*
	// James — structure makes the distinction expressible.
	add("turn-of-the-screw", "The Turn of the Screw", james, fiction)
	add("portrait-of-a-lady", "The Portrait of a Lady", james, fiction)
	add("life-of-henry-james", "A Life of Henry James", other, biography)
	add("neuromancer", "Neuromancer", other, fiction)

	m := core.Open(g, core.Options{})
	s := m.NewSession()

	// 1. Keyword search, "the least cognitive effort" starting point: all
	//    books mentioning James anywhere.
	s.Search("james")
	fmt.Println("Keyword search: james")
	render.Collection(os.Stdout, m.Graph(), s.Items(), 10)

	// 2. Add the structured constraint distinguishing by-James from
	//    about-James.
	s.Refine(query.Property{Prop: author, Value: james}, blackboard.Filter)
	fmt.Println("\nRefined: author = Henry James")
	render.Collection(os.Stdout, m.Graph(), s.Items(), 10)

	// 3. The navigation pane with advisor suggestions.
	fmt.Println()
	render.Pane(os.Stdout, s.Pane(), false)

	// 4. Fuzzy similarity: other books like 'The Turn of the Screw'.
	turn := rdf.IRI(ns + "turn-of-the-screw")
	fmt.Println("\nSimilar to The Turn of the Screw:")
	for _, sc := range m.Model().SimilarToItem(turn, 3) {
		fmt.Printf("  %.3f %s\n", sc.Score, m.Label(sc.Item))
	}
}

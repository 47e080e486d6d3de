package vsm_test

import (
	"fmt"

	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/vsm"
)

// Example shows the semistructured vector space model on the paper's
// running example shape: attribute/value coordinates, text splitting, and
// dot-product similarity.
func Example() {
	gb := rdf.NewBuilder()
	ns := "http://e/"
	ingredient := rdf.IRI(ns + "ingredient")

	add := func(id, title string, ings ...string) rdf.IRI {
		r := rdf.IRI(ns + id)
		gb.Add(r, rdf.Type, rdf.IRI(ns+"Recipe"))
		gb.Add(r, rdf.DCTitle, rdf.NewString(title))
		for _, ing := range ings {
			gb.Add(r, ingredient, rdf.IRI(ns+ing))
		}
		return r
	}
	cobbler := add("cobbler", "Apple Cobbler Cake", "apple", "flour", "butter")
	pie := add("pie", "Apple Pie", "apple", "flour")
	salad := add("salad", "Greek Salad", "feta", "olive")

	g := gb.Freeze()
	m := vsm.New(g, schema.NewStore(g), vsm.Options{})
	m.IndexAll(g.SubjectIDsOf([]rdf.IRI{cobbler, pie, salad}))

	fmt.Printf("cobbler~pie   %.2f\n", m.Similarity(cobbler, pie))
	fmt.Printf("cobbler~salad %.2f\n", m.Similarity(cobbler, salad))

	top := m.SimilarToItem(cobbler, 1)
	fmt.Println("most similar to cobbler:", g.SubjectByID(top[0].ID).LocalName())
	// Output:
	// cobbler~pie   0.19
	// cobbler~salad 0.00
	// most similar to cobbler: pie
}

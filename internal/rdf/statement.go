package rdf

import "fmt"

// Statement is a single RDF triple. Subjects are restricted to IRIs (Magnet
// identifies every information object by IRI; blank subjects from imported
// data are skolemized by the N-Triples reader).
type Statement struct {
	Subject   IRI
	Predicate IRI
	Object    Term
}

// String returns the N-Triples line for the statement (without newline).
func (st Statement) String() string {
	return fmt.Sprintf("%s %s %s .", st.Subject, st.Predicate, st.Object)
}

// Key returns a canonical key uniquely identifying the triple.
func (st Statement) Key() string {
	return st.Subject.Key() + "\x00" + st.Predicate.Key() + "\x00" + st.Object.Key()
}

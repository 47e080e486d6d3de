package rdf

import (
	"reflect"
	"sort"
	"testing"

	"magnet/internal/itemset"
)

// segTestBuilder builds a small mixed graph: typed items, literals, shared
// objects, a removed statement (leaving a dead subject row), and an orphan
// subject. It returns the builder with the statements it holds.
func segTestBuilder(t *testing.T) (*Builder, []Statement) {
	t.Helper()
	b := NewBuilder()
	var live []Statement
	add := func(s IRI, p IRI, o Term) {
		if !b.Add(s, p, o) {
			t.Fatalf("duplicate add %v %v %v", s, p, o)
		}
		live = append(live, Statement{s, p, o})
	}
	add("urn:a", Type, IRI("urn:Recipe"))
	add("urn:b", Type, IRI("urn:Recipe"))
	add("urn:a", "urn:cuisine", NewString("Greek"))
	add("urn:b", "urn:cuisine", NewString("Italian"))
	add("urn:a", "urn:ingredient", NewString("Parsley"))
	add("urn:b", "urn:ingredient", NewString("Parsley"))
	add("urn:a", "urn:servings", NewInteger(4))
	add("urn:c", "urn:label", NewString("orphan"))
	// Remove a statement so a subject row goes dead — the columns must
	// carry the gap and the frozen graph must not show it.
	if !b.Add("urn:dead", "urn:label", NewString("doomed")) || !b.Remove("urn:dead", "urn:label", NewString("doomed")) {
		t.Fatal("add/remove of the doomed statement failed")
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Key() < live[j].Key() })
	return b, live
}

// TestGraphColumnsRoundTrip freezes the builder and checks every read
// accessor against the statement list it was built from.
func TestGraphColumnsRoundTrip(t *testing.T) {
	b, live := segTestBuilder(t)
	g := b.Freeze()

	if g.Len() != len(live) || b.Len() != len(live) {
		t.Errorf("Len = %d (builder %d), want %d", g.Len(), b.Len(), len(live))
	}
	if got := g.AllStatements(); !reflect.DeepEqual(got, live) {
		t.Fatalf("AllStatements = %v, want %v", got, live)
	}

	// Oracles over the statement list.
	objects := func(s, p IRI) []Term {
		var out []Term
		for _, st := range live {
			if st.Subject == s && st.Predicate == p {
				out = append(out, st.Object)
			}
		}
		return out
	}
	preds := func(s IRI) []IRI {
		seen := map[IRI]bool{}
		var out []IRI
		for _, st := range live {
			if (s == "" || st.Subject == s) && !seen[st.Predicate] {
				seen[st.Predicate] = true
				out = append(out, st.Predicate)
			}
		}
		sortIRIs(out)
		return out
	}
	subjects := func(p IRI, o Term) []IRI {
		var out []IRI
		for _, st := range live {
			if st.Predicate == p && (o == nil || st.Object.Key() == o.Key()) {
				out = append(out, st.Subject)
			}
		}
		sortIRIs(out)
		return out
	}

	for _, s := range []IRI{"urn:a", "urn:b", "urn:c", "urn:dead", "urn:missing"} {
		want := preds(s)
		if got := g.HasSubject(s); got != (len(want) > 0) {
			t.Errorf("HasSubject(%s) = %v", s, got)
		}
		if got := g.PredicatesOf(s); !reflect.DeepEqual(got, want) {
			t.Errorf("PredicatesOf(%s) = %v, want %v", s, got, want)
		}
		for _, p := range want {
			wantObjs := objects(s, p)
			if got := g.Objects(s, p); !reflect.DeepEqual(got, wantObjs) {
				t.Errorf("Objects(%s,%s) = %v, want %v", s, p, got, wantObjs)
			}
			if got := g.ObjectCount(s, p); got != len(wantObjs) {
				t.Errorf("ObjectCount(%s,%s) = %d, want %d", s, p, got, len(wantObjs))
			}
			if o, ok := g.Object(s, p); !ok || o.Key() != wantObjs[0].Key() {
				t.Errorf("Object(%s,%s) = %v,%v, want %v", s, p, o, ok, wantObjs[0])
			}
		}
	}

	// Reverse index: subjects carrying a property, value enumeration, and
	// posting iteration.
	for _, p := range []IRI{Type, "urn:cuisine", "urn:ingredient", "urn:nothing"} {
		cover := map[IRI]bool{}
		for _, s := range subjects(p, nil) {
			cover[s] = true
		}
		if got := g.SubjectsWithProperty(p); len(got) != len(cover) {
			t.Errorf("SubjectsWithProperty(%s) = %v, want %d subjects", p, got, len(cover))
		}
		var walked []Term
		g.ForEachValuePosting(p, func(o Term, subs itemset.Set) bool {
			walked = append(walked, o)
			if subs.Len() != len(subjects(p, o)) {
				t.Errorf("ForEachValuePosting(%s) %v: %d subjects, want %d", p, o, subs.Len(), len(subjects(p, o)))
			}
			return true
		})
		if got := g.ObjectsOf(p); !reflect.DeepEqual(got, walked) {
			t.Errorf("ObjectsOf(%s) = %v, walked %v", p, got, walked)
		}
		for _, o := range walked {
			if got := g.Subjects(p, o); !reflect.DeepEqual(got, subjects(p, o)) {
				t.Errorf("Subjects(%s,%v) = %v, want %v", p, o, got, subjects(p, o))
			}
		}
	}

	if got, want := g.AllSubjects(), []IRI{"urn:a", "urn:b", "urn:c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("AllSubjects = %v, want %v", got, want)
	}
	if got := g.Predicates(); !reflect.DeepEqual(got, preds("")) {
		t.Errorf("Predicates = %v, want %v", got, preds(""))
	}
	if !g.Has("urn:a", "urn:servings", NewInteger(4)) {
		t.Error("Has(a servings 4) = false")
	}
	if g.Has("urn:dead", "urn:label", NewString("doomed")) {
		t.Error("Has finds the removed statement")
	}
	if _, ok := g.SubjectID("urn:dead"); !ok {
		t.Error("the dead subject lost its dense ID")
	}
}

// TestGraphColumnsEmpty: an empty builder freezes to an empty graph.
func TestGraphColumnsEmpty(t *testing.T) {
	r, err := FromColumns(NewBuilder().Columns())
	if err != nil {
		t.Fatalf("FromColumns(empty): %v", err)
	}
	if r.Len() != 0 || len(r.AllSubjects()) != 0 || len(r.AllStatements()) != 0 {
		t.Errorf("empty graph view not empty: len=%d", r.Len())
	}
}

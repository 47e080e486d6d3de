package advisors

import (
	"reflect"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

func post(b *blackboard.Board, advisor, group, title string, w float64) {
	b.Post(blackboard.Suggestion{
		Advisor: advisor, Group: group, Title: title, Weight: w,
		Key: advisor + "/" + group + "/" + title,
	})
}

func TestBuildGroupsAndOrders(t *testing.T) {
	b := blackboard.NewBoard()
	post(b, blackboard.AdvisorRefine, "cuisine", "Mexican", 0.5)
	post(b, blackboard.AdvisorRefine, "cuisine", "Greek", 0.9)
	post(b, blackboard.AdvisorRefine, "ingredient", "Feta", 0.8)
	post(b, blackboard.AdvisorRelated, "Similar by Content", "Overall", 1.0)

	pane := Build(query.NewQuery(), func(r rdf.IRI) string { return string(r) }, b, DefaultConfigs())

	if len(pane.Sections) != 2 {
		t.Fatalf("sections = %d", len(pane.Sections))
	}
	// DefaultConfigs order: Related first, then Refine.
	if pane.Sections[0].Advisor != blackboard.AdvisorRelated {
		t.Errorf("first section = %s", pane.Sections[0].Advisor)
	}
	refine := pane.Sections[1]
	if len(refine.Groups) != 2 {
		t.Fatalf("refine groups = %d", len(refine.Groups))
	}
	// Group with the highest-weight suggestion first: cuisine (0.9).
	if refine.Groups[0].Title != "cuisine" {
		t.Errorf("first group = %q", refine.Groups[0].Title)
	}
	// Suggestions within a group are alphabetical after weight selection.
	titles := []string{refine.Groups[0].Suggestions[0].Title, refine.Groups[0].Suggestions[1].Title}
	if !reflect.DeepEqual(titles, []string{"Greek", "Mexican"}) {
		t.Errorf("group titles = %v", titles)
	}
}

func TestBuildHonorsMaxPerGroup(t *testing.T) {
	b := blackboard.NewBoard()
	for _, v := range []struct {
		title string
		w     float64
	}{{"apple", 0.1}, {"banana", 0.9}, {"cherry", 0.8}, {"date", 0.7}} {
		post(b, blackboard.AdvisorRefine, "fruit", v.title, v.w)
	}
	cfgs := []Config{{Name: blackboard.AdvisorRefine, MaxPerGroup: 2}}
	pane := Build(query.NewQuery(), nil, b, cfgs)
	g := pane.Sections[0].Groups[0]
	if len(g.Suggestions) != 2 || g.Omitted != 2 {
		t.Fatalf("selected=%d omitted=%d", len(g.Suggestions), g.Omitted)
	}
	// Weight picks banana+cherry; alphabetical display.
	if g.Suggestions[0].Title != "banana" || g.Suggestions[1].Title != "cherry" {
		t.Errorf("suggestions = %v", g.Suggestions)
	}
}

func TestBuildHonorsMaxGroups(t *testing.T) {
	b := blackboard.NewBoard()
	post(b, blackboard.AdvisorRefine, "g1", "a", 0.9)
	post(b, blackboard.AdvisorRefine, "g2", "b", 0.8)
	post(b, blackboard.AdvisorRefine, "g3", "c", 0.7)
	cfgs := []Config{{Name: blackboard.AdvisorRefine, MaxGroups: 2, MaxPerGroup: 5}}
	pane := Build(query.NewQuery(), nil, b, cfgs)
	sec := pane.Sections[0]
	if len(sec.Groups) != 2 || sec.OmittedGroups != 1 {
		t.Errorf("groups=%d omitted=%d", len(sec.Groups), sec.OmittedGroups)
	}
}

func TestBuildConstraints(t *testing.T) {
	q := query.NewQuery(
		query.Property{Prop: rdf.IRI("p"), Value: rdf.IRI("v")},
		query.Not{P: query.Keyword{Text: "nuts"}},
	)
	pane := Build(q, func(r rdf.IRI) string { return string(r) }, blackboard.NewBoard(), nil)
	want := []string{"p = v", `NOT contains "nuts"`}
	if !reflect.DeepEqual(pane.Constraints, want) {
		t.Errorf("constraints = %v", pane.Constraints)
	}
	if len(pane.Sections) != 0 {
		t.Error("empty board should give no sections")
	}
}

func TestAllSuggestionsAndFind(t *testing.T) {
	b := blackboard.NewBoard()
	post(b, blackboard.AdvisorRefine, "g", "alpha", 0.9)
	post(b, blackboard.AdvisorModify, "h", "beta", 0.5)
	pane := Build(query.NewQuery(), nil, b, DefaultConfigs())
	all := pane.AllSuggestions()
	if len(all) != 2 {
		t.Fatalf("AllSuggestions = %d", len(all))
	}
	// Finding a suggestion by title in the flattened pane keeps its advisor.
	var beta *blackboard.Suggestion
	for i := range all {
		if all[i].Title == "beta" {
			beta = &all[i]
		}
	}
	if beta == nil || beta.Advisor != blackboard.AdvisorModify {
		t.Errorf("beta in AllSuggestions = %v", beta)
	}
}

func TestUnknownAdvisorSuggestionsIgnored(t *testing.T) {
	b := blackboard.NewBoard()
	post(b, "Custom Advisor", "g", "x", 1)
	pane := Build(query.NewQuery(), nil, b, DefaultConfigs())
	if len(pane.Sections) != 0 {
		t.Error("suggestions for unconfigured advisors should not render")
	}
	// But a config naming it picks it up.
	pane = Build(query.NewQuery(), nil, b, []Config{{Name: "Custom Advisor"}})
	if len(pane.Sections) != 1 {
		t.Error("configured custom advisor missing")
	}
}

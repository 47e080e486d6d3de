// Package advisors turns blackboard suggestions into the navigation pane
// the user sees (paper §4.1): each advisor selects its most relevant
// suggestions by analyst-provided weight, groups them by property, shows
// "the first few values to give the user appropriate context" with a '...'
// count for the rest, and presents each group alphabetically.
package advisors

import (
	"sort"

	"magnet/internal/blackboard"
	"magnet/internal/query"
)

// Config sizes one advisor's slice of the pane.
type Config struct {
	// Name is the advisor (one of the blackboard.Advisor* constants or an
	// extension).
	Name string
	// MaxGroups bounds how many suggestion groups are shown (0 = no limit).
	MaxGroups int
	// MaxPerGroup bounds suggestions per group before the '...' affordance
	// (0 = no limit).
	MaxPerGroup int
}

// DefaultConfigs mirrors the pane layout of the paper's Figure 1: Related
// Items on top, Refine Collections in the middle, Modify below, then
// History, with the Query affordance alongside.
func DefaultConfigs() []Config {
	return []Config{
		{Name: blackboard.AdvisorRelated, MaxGroups: 4, MaxPerGroup: 5},
		{Name: blackboard.AdvisorRefine, MaxGroups: 8, MaxPerGroup: 5},
		{Name: blackboard.AdvisorModify, MaxGroups: 2, MaxPerGroup: 5},
		{Name: blackboard.AdvisorHistory, MaxGroups: 2, MaxPerGroup: 5},
		{Name: blackboard.AdvisorQuery, MaxGroups: 1, MaxPerGroup: 2},
	}
}

// Group is a titled cluster of suggestions within an advisor's section.
type Group struct {
	Title       string
	Suggestions []blackboard.Suggestion
	// Omitted counts suggestions hidden behind the '...' affordance.
	Omitted int
}

// Section is one advisor's part of the pane.
type Section struct {
	Advisor string
	Groups  []Group
	// OmittedGroups counts whole groups not shown.
	OmittedGroups int
}

// Pane is the rendered navigation pane model: the current query's
// constraints on top (each removable/negatable), then advisor sections.
type Pane struct {
	// Constraints are the conjunctive query terms, in order.
	Constraints []string
	Sections    []Section
}

// Build assembles the pane for a query and a filled blackboard.
func Build(q query.Query, l query.Labeler, b *blackboard.Board, cfgs []Config) Pane {
	pane := Pane{Constraints: q.Describe(l)}
	byAdvisor := b.ByAdvisor()
	for _, cfg := range cfgs {
		ss := byAdvisor[cfg.Name]
		if len(ss) == 0 {
			continue
		}
		pane.Sections = append(pane.Sections, buildSection(cfg, ss))
	}
	return pane
}

func buildSection(cfg Config, ss []blackboard.Suggestion) Section {
	// Cluster by group title, tracking each group's best weight for
	// ordering between groups.
	type cluster struct {
		title string
		best  float64
		ss    []blackboard.Suggestion
	}
	byGroup := make(map[string]*cluster)
	var order []*cluster
	for _, s := range ss {
		c := byGroup[s.Group]
		if c == nil {
			c = &cluster{title: s.Group}
			byGroup[s.Group] = c
			order = append(order, c)
		}
		if s.Weight > c.best {
			c.best = s.Weight
		}
		c.ss = append(c.ss, s)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].best != order[j].best {
			return order[i].best > order[j].best
		}
		return order[i].title < order[j].title
	})

	sec := Section{Advisor: cfg.Name}
	for i, c := range order {
		if cfg.MaxGroups > 0 && i >= cfg.MaxGroups {
			sec.OmittedGroups = len(order) - i
			break
		}
		limit := cfg.MaxPerGroup
		if limit <= 0 {
			limit = len(c.ss)
		}
		selected, omitted := blackboard.SelectTop(c.ss, limit)
		sec.Groups = append(sec.Groups, Group{
			Title:       c.title,
			Suggestions: selected,
			Omitted:     omitted,
		})
	}
	return sec
}

// AllSuggestions flattens the pane back to its visible suggestions, in
// display order (for tests and for the CLI's numbered selection).
func (p Pane) AllSuggestions() []blackboard.Suggestion {
	var out []blackboard.Suggestion
	for _, sec := range p.Sections {
		for _, g := range sec.Groups {
			out = append(out, g.Suggestions...)
		}
	}
	return out
}

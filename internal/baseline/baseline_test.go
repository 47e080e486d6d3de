package baseline

import (
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

func analystNames(m *core.Magnet) map[string]bool {
	s := m.NewSession()
	s.OpenItem(m.Items()[0])
	names := map[string]bool{}
	for _, sg := range s.Board().Suggestions() {
		names[sg.Analyst] = true
	}
	return names
}

func TestBaselineOmitsMagnetAdvisors(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 150, Seed: 1})
	base := analystNames(Open(gb, core.Options{}))
	full := analystNames(OpenComplete(gb, core.Options{}))

	for _, magnetOnly := range []string{"similar-by-content-item", "shared-property"} {
		if base[magnetOnly] {
			t.Errorf("baseline posted %s", magnetOnly)
		}
		if !full[magnetOnly] {
			t.Errorf("complete system missing %s", magnetOnly)
		}
	}
}

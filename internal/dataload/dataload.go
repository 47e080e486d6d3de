// Package dataload resolves a dataset specification — a built-in corpus
// name or an N-Triples file — into an annotated graph builder. It is the one place
// the dataset switch lives: magnet-server serves from it, magnet-build
// compiles segment sets from it, and the two agree byte-for-byte because
// they run the same code with the same parameters.
package dataload

import (
	"fmt"
	"os"

	"magnet/internal/datasets/artstor"
	"magnet/internal/datasets/courses"
	"magnet/internal/datasets/factbook"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/rdf"
)

// Spec describes what to load. File, when set, wins over Dataset.
type Spec struct {
	// Dataset is a built-in corpus name: recipes, states, factbook, inbox,
	// artstor or courses.
	Dataset string
	// File is an N-Triples file path; loads instead of Dataset when set.
	File string
	// Recipes is the recipes corpus size (0 means the paper's 6,444).
	Recipes int
	// Seed is the recipes generator seed (0 means 1).
	Seed int64
}

// Params returns the build parameters that change the loaded graph, for
// recording in a segment manifest (and later compared at open: a reader
// expecting seed 1 must not silently get seed 7's corpus).
func (s Spec) Params() map[string]int64 {
	if s.File != "" || s.Dataset != "recipes" {
		return nil
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	n := int64(s.Recipes)
	if n == 0 {
		n = 6444
	}
	return map[string]int64{"recipes": n, "seed": seed}
}

// Name returns the dataset name recorded in manifests: the built-in name,
// or "file" for N-Triples input.
func (s Spec) Name() string {
	if s.File != "" {
		return "file"
	}
	return s.Dataset
}

// Load resolves the spec. The second result is whether every subject should
// be indexed (core.Options.IndexAllSubjects) — true only for datasets that
// carry no rdf:type triples, like the states CSV import.
func Load(s Spec) (*rdf.Builder, bool, error) {
	if s.File != "" {
		f, err := os.Open(s.File)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		g, err := rdf.ReadNTriples(f)
		return g, false, err
	}
	switch s.Dataset {
	case "recipes":
		return recipes.Build(recipes.Config{Recipes: s.Recipes, Seed: s.Seed}), false, nil
	case "states":
		g, err := states.Build()
		if err != nil {
			return nil, false, err
		}
		states.Annotate(g)
		return g, true, nil
	case "factbook":
		g := factbook.Build(factbook.Config{})
		factbook.Annotate(g)
		return g, false, nil
	case "inbox":
		return inbox.Build(inbox.Config{}), false, nil
	case "artstor":
		return artstor.Build(artstor.Config{HideAccession: true}), false, nil
	case "courses":
		return courses.Build(courses.Config{HideCatalogKey: true}), false, nil
	default:
		return nil, false, fmt.Errorf("unknown dataset %q", s.Dataset)
	}
}

// Command magnet-annotate implements the paper's §7 future work as a tool:
// it inspects a dataset and proposes the schema annotations a schema expert
// would add — value types, labels, compositions, facet preferences, hidden
// flags — with confidences and evidence, optionally applying them and
// writing the annotated graph back out as N-Triples.
//
// Usage:
//
//	magnet-annotate [-dataset states|factbook|courses|recipes] [-file in.nt]
//	                [-min 0.5] [-apply out.nt]
package main

import (
	"flag"
	"fmt"
	"os"

	"magnet/internal/annotate"
	"magnet/internal/datasets/artstor"
	"magnet/internal/datasets/courses"
	"magnet/internal/datasets/factbook"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/rdf"
)

func main() {
	dataset := flag.String("dataset", "states", "built-in dataset: states, factbook, courses, recipes")
	file := flag.String("file", "", "load an N-Triples file instead of a built-in dataset")
	min := flag.Float64("min", 0.5, "minimum proposal confidence")
	apply := flag.String("apply", "", "apply proposals and write the annotated graph to this N-Triples file")
	flag.Parse()

	b, err := load(*dataset, *file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "magnet-annotate: %v\n", err)
		os.Exit(1)
	}
	g := b.Freeze()

	proposals := annotate.Advise(g, annotate.Config{})
	kept := proposals[:0]
	for _, p := range proposals {
		if p.Confidence >= *min {
			kept = append(kept, p)
		}
	}
	fmt.Printf("%d proposals (of %d) at confidence ≥ %.2f:\n\n", len(kept), len(proposals), *min)
	for _, p := range kept {
		fmt.Printf("  [%-10s] %s\n", p.Kind, p.Describe(g.Label))
	}

	if *apply == "" {
		return
	}
	annotate.Apply(b, kept)
	out, err := os.Create(*apply)
	if err != nil {
		fmt.Fprintf(os.Stderr, "magnet-annotate: %v\n", err)
		os.Exit(1)
	}
	defer out.Close()
	if err := rdf.WriteNTriples(b.Freeze(), out); err != nil {
		fmt.Fprintf(os.Stderr, "magnet-annotate: writing %s: %v\n", *apply, err)
		os.Exit(1)
	}
	fmt.Printf("\napplied %d proposals; annotated graph written to %s (%d triples)\n",
		len(kept), *apply, b.Len())
}

func load(dataset, file string) (*rdf.Builder, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rdf.ReadNTriples(f)
	}
	switch dataset {
	case "states":
		return states.Build()
	case "factbook":
		return factbook.Build(factbook.Config{}), nil
	case "artstor":
		return artstor.Build(artstor.Config{}), nil
	case "courses":
		return courses.Build(courses.Config{}), nil
	case "recipes":
		return recipes.Build(recipes.Config{Recipes: 1000, SkipAnnotations: true}), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

// Command magnet-build compiles a dataset into a persistent segment set: a
// directory of versioned, checksummed columnar files holding the full ID
// plane — interner string tables, per-predicate posting lists, text-index
// postings, vector columns — that magnet-server and magnet-eval can open
// read-only via mmap with no per-element decode.
//
// Build once, serve many: the expensive work (dataset generation, text
// analysis, vector indexing) happens here; open time at serve is
// independent of corpus size.
//
// Usage:
//
//	magnet-build -out segments/recipes [-dataset recipes] [-recipes 2000] [-seed 1]
//	magnet-build -out segments/mail -dataset inbox
//	magnet-build -out segments/custom -file data.nt
//	magnet-build -verify segments/recipes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/segment"
)

func main() {
	dataset := flag.String("dataset", "recipes", "built-in dataset: recipes, states, factbook, inbox, artstor, courses")
	file := flag.String("file", "", "compile an N-Triples file instead of a built-in dataset")
	nRecipes := flag.Int("recipes", 2000, "recipe corpus size")
	seed := flag.Int64("seed", 1, "recipe corpus seed")
	out := flag.String("out", "", "output segment directory (required unless -verify)")
	verify := flag.String("verify", "", "verify an existing segment directory and exit")
	flag.Parse()

	if *verify != "" {
		if err := verifyDir(*verify); err != nil {
			fmt.Fprintf(os.Stderr, "magnet-build: verify %s: %v\n", *verify, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *verify)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "magnet-build: -out is required (or -verify to check an existing set)")
		os.Exit(2)
	}

	if err := build(*dataset, *file, *nRecipes, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "magnet-build: %v\n", err)
		os.Exit(1)
	}
}

func build(dataset, file string, nRecipes int, seed int64, out string) error {
	spec := dataload.Spec{Dataset: dataset, File: file, Recipes: nRecipes, Seed: seed}
	start := time.Now()
	g, allSubjects, err := dataload.Load(spec)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	loadDur := time.Since(start)

	start = time.Now()
	m := core.Open(g, core.Options{IndexAllSubjects: allSubjects})
	defer m.Close()
	indexDur := time.Since(start)

	start = time.Now()
	man, err := m.WriteSegments(out, spec.Name(), spec.Params())
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	writeDur := time.Since(start)

	// Re-open what we just wrote and verify every checksum: a set that
	// fails its own build verification must never be served.
	start = time.Now()
	if err := verifyDir(out); err != nil {
		return fmt.Errorf("post-write verify: %w", err)
	}
	verifyDur := time.Since(start)

	var total int64
	for _, f := range man.Files {
		total += f.Bytes
	}
	fmt.Printf("%s: dataset=%s items=%d triples=%d bytes=%d files=%d\n",
		out, man.Dataset, man.Items, man.Triples, total, len(man.Files))
	fmt.Printf("  load=%s index=%s write=%s verify=%s\n", loadDur, indexDur, writeDur, verifyDur)
	return nil
}

func verifyDir(dir string) error {
	set, err := segment.OpenDir(dir)
	if err != nil {
		return err
	}
	defer set.Close()
	return set.Verify()
}

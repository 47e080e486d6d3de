// Package courses generates a course-catalog dataset shaped like the
// "independent external conversions to RDF of the data behind MIT
// OpenCourseWare" the paper evaluated on (§6.1). Those datasets "did have
// label and attribute-value annotations, allowing Magnet to present easy to
// understand navigation suggestions", but also exposed attributes that
// "were determined to be algorithmically significant for refining [yet]
// were not deemed important for end-user navigation" — reproduced here by
// an internal catalog-key property that is distinctive (high idf, low
// entropy within departments) but human-opaque, which the magnet:hidden
// annotation can then suppress.
package courses

import (
	"fmt"
	"math/rand"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// NS is the dataset namespace.
const NS = "http://magnet.example.org/ocw#"

// Vocabulary.
var (
	ClassCourse = rdf.IRI(NS + "Course")

	PropDept       = rdf.IRI(NS + "department")
	PropInstructor = rdf.IRI(NS + "instructor")
	PropLevel      = rdf.IRI(NS + "level")
	PropSemester   = rdf.IRI(NS + "semester")
	PropUnits      = rdf.IRI(NS + "units")
	PropAbout      = rdf.IRI(NS + "description")
	// PropCatalogKey is the opaque internal attribute of §6.1.
	PropCatalogKey = rdf.IRI(NS + "xCatKey")
)

// Course returns the i-th course resource.
func Course(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%scourse/%03d", NS, i)) }

// Departments in the catalog.
var Departments = []string{
	"Electrical Engineering", "Mathematics", "Physics", "Biology",
	"Economics", "Architecture", "Linguistics", "Mechanical Engineering",
}

var levels = []string{"Undergraduate", "Graduate"}

var semesters = []string{"Fall 2003", "Spring 2004", "Fall 2004"}

var instructors = []string{
	"Prof. Adams", "Prof. Baker", "Prof. Chandra", "Prof. Duarte",
	"Prof. Eriksson", "Prof. Feld", "Prof. Gupta", "Prof. Hassan",
	"Prof. Ito", "Prof. Jones", "Prof. Karger", "Prof. Liu",
}

var subjectWords = [][]string{
	{"circuits", "signals", "systems", "electronics"},
	{"algebra", "calculus", "probability", "topology"},
	{"mechanics", "quantum", "relativity", "thermodynamics"},
	{"genetics", "cells", "ecology", "evolution"},
	{"markets", "pricing", "trade", "incentives"},
	{"design", "studios", "urbanism", "structures"},
	{"syntax", "semantics", "phonology", "grammar"},
	{"dynamics", "materials", "robotics", "manufacturing"},
}

// Config controls generation.
type Config struct {
	// Courses is the catalog size; 0 means 160.
	Courses int
	// Seed defaults to 1.
	Seed int64
	// HideCatalogKey applies the magnet:hidden annotation to the opaque
	// internal attribute (the paper's remedy for non-human-readable
	// suggestions).
	HideCatalogKey bool
}

// Build generates the catalog into a fresh graph builder with full labels and
// value-type annotations (these datasets arrived annotated).
func Build(cfg Config) *rdf.Builder {
	g := rdf.NewBuilder()
	n := cfg.Courses
	if n <= 0 {
		n = 160
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < n; i++ {
		c := Course(i)
		d := rng.Intn(len(Departments))
		words := subjectWords[d]
		g.Add(c, rdf.Type, ClassCourse)
		g.Add(c, rdf.Label, rdf.NewString(fmt.Sprintf("%s %d.%02d", Departments[d], d+1, i%30)))
		g.Add(c, PropDept, rdf.NewString(Departments[d]))
		g.Add(c, PropInstructor, rdf.NewString(instructors[rng.Intn(len(instructors))]))
		g.Add(c, PropLevel, rdf.NewString(levels[rng.Intn(len(levels))]))
		g.Add(c, PropSemester, rdf.NewString(semesters[rng.Intn(len(semesters))]))
		g.Add(c, PropUnits, rdf.NewInteger(int64(rng.Intn(9)+3)))
		g.Add(c, PropAbout, rdf.NewString(fmt.Sprintf(
			"An introduction to %s and %s with laboratory work on %s.",
			words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))])))
		// Opaque internal key: shared within a department batch, so it is
		// algorithmically significant for refinement — but unreadable.
		g.Add(c, PropCatalogKey, rdf.NewString(fmt.Sprintf("0x%04X-%d", 0xA000+d*16, i%4)))
	}

	schema.SetLabel(g, PropDept, "Department")
	schema.SetLabel(g, PropInstructor, "Instructor")
	schema.SetLabel(g, PropLevel, "Level")
	schema.SetLabel(g, PropSemester, "Semester")
	schema.SetLabel(g, PropUnits, "Units")
	schema.SetLabel(g, PropAbout, "Description")
	schema.SetValueType(g, PropUnits, schema.Integer)
	schema.SetFacet(g, PropDept)
	schema.SetFacet(g, PropLevel)
	if cfg.HideCatalogKey {
		schema.SetHidden(g, PropCatalogKey)
	}
	return g
}

// Package artstor generates an image-metadata dataset shaped like the
// ArtSTOR RDF conversion the paper evaluated on (§6.1 — ArtSTOR is "a
// non-profit organization to develop and distribute electronic digital
// images"). Artworks carry creator, culture, period, medium, museum
// collection and creation year; like the paper's conversion the dataset
// arrives with label and value-type annotations, "allowing Magnet to
// present easy to understand navigation suggestions", plus an opaque
// registrar accession code reproducing the not-human-readable-attribute
// observation.
package artstor

import (
	"fmt"
	"math/rand"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// NS is the dataset namespace.
const NS = "http://magnet.example.org/artstor#"

// Vocabulary.
var (
	ClassArtwork = rdf.IRI(NS + "Artwork")

	PropCreator    = rdf.IRI(NS + "creator")
	PropCulture    = rdf.IRI(NS + "culture")
	PropPeriod     = rdf.IRI(NS + "period")
	PropMedium     = rdf.IRI(NS + "medium")
	PropCollection = rdf.IRI(NS + "collection")
	PropYear       = rdf.IRI(NS + "yearCreated")
	PropAccession  = rdf.IRI(NS + "xAccession")
)

// Artwork returns the i-th artwork resource.
func Artwork(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%swork/%04d", NS, i)) }

var creators = []string{
	"Rembrandt van Rijn", "Katsushika Hokusai", "Mary Cassatt",
	"Albrecht Dürer", "Sofonisba Anguissola", "Unknown artist",
	"Wassily Kandinsky", "Ogata Kōrin", "Artemisia Gentileschi",
	"Utagawa Hiroshige", "Jan Vermeer", "El Greco",
}

var cultures = []string{
	"Dutch", "Japanese", "American", "German", "Italian", "Spanish",
	"French", "Flemish",
}

var periods = []string{
	"Renaissance", "Baroque", "Edo period", "Impressionism",
	"Modern", "Romanticism",
}

var media = []string{
	"Oil on canvas", "Woodblock print", "Etching", "Watercolor",
	"Tempera on panel", "Bronze", "Marble", "Pastel",
}

var collections = []string{
	"Prints and Drawings", "European Paintings", "Asian Art",
	"Sculpture Garden", "Modern Wing",
}

// Config controls generation.
type Config struct {
	// Works is the number of artworks; 0 means 240.
	Works int
	// Seed defaults to 1.
	Seed int64
	// HideAccession applies the magnet:hidden annotation to the registrar
	// code.
	HideAccession bool
}

// Build generates the dataset with full annotations.
func Build(cfg Config) *rdf.Builder {
	g := rdf.NewBuilder()
	n := cfg.Works
	if n <= 0 {
		n = 240
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < n; i++ {
		w := Artwork(i)
		culture := cultures[rng.Intn(len(cultures))]
		period := periods[rng.Intn(len(periods))]
		medium := media[rng.Intn(len(media))]
		creator := creators[rng.Intn(len(creators))]
		year := 1400 + rng.Intn(560)

		g.Add(w, rdf.Type, ClassArtwork)
		g.Add(w, rdf.Label, rdf.NewString(fmt.Sprintf("%s, %s (%d)", creator, medium, year)))
		g.Add(w, PropCreator, rdf.NewString(creator))
		g.Add(w, PropCulture, rdf.NewString(culture))
		g.Add(w, PropPeriod, rdf.NewString(period))
		g.Add(w, PropMedium, rdf.NewString(medium))
		g.Add(w, PropCollection, rdf.NewString(collections[rng.Intn(len(collections))]))
		g.Add(w, PropYear, rdf.NewInteger(int64(year)))
		g.Add(w, PropAccession, rdf.NewString(fmt.Sprintf("AC.%02d.%04d-%c", rng.Intn(99), i, 'A'+byte(rng.Intn(6)))))
	}

	schema.SetLabel(g, PropCreator, "Creator")
	schema.SetLabel(g, PropCulture, "Culture")
	schema.SetLabel(g, PropPeriod, "Period")
	schema.SetLabel(g, PropMedium, "Medium")
	schema.SetLabel(g, PropCollection, "Collection")
	schema.SetLabel(g, PropYear, "Year created")
	schema.SetValueType(g, PropYear, schema.Integer)
	schema.SetFacet(g, PropCulture)
	schema.SetFacet(g, PropPeriod)
	schema.SetFacet(g, PropMedium)
	if cfg.HideAccession {
		schema.SetHidden(g, PropAccession)
	}
	return g
}

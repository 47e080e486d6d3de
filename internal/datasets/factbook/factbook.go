// Package factbook generates a CIA-World-Factbook-shaped dataset, the
// stand-in for the RDF conversion the paper used (§6.1, "an RDF version of
// the CIA World Factbook" from ontoknowledge.org, long offline). The
// paper's observation to reproduce: "The navigation system did recommend
// navigating to countries that have the same independence day or
// currencies" — so the generator guarantees shared currencies (the euro and
// a few regional currencies) and shared independence days.
//
// Like the original conversion, values arrive as plain strings with neither
// labels nor value types; Annotate adds the label and value-type
// annotations the paper reports improving the interface with.
package factbook

import (
	"fmt"
	"math/rand"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// NS is the dataset namespace.
const NS = "http://magnet.example.org/factbook#"

// Vocabulary.
var (
	ClassCountry = rdf.IRI(NS + "Country")

	PropName         = rdf.IRI(NS + "name")
	PropRegion       = rdf.IRI(NS + "region")
	PropCurrency     = rdf.IRI(NS + "currency")
	PropIndependence = rdf.IRI(NS + "independenceDay")
	PropLanguage     = rdf.IRI(NS + "language")
	PropPopulation   = rdf.IRI(NS + "population")
	PropAreaKM       = rdf.IRI(NS + "areaSqKm")
)

// Country returns the resource for the i-th generated country.
func Country(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%scountry/%03d", NS, i)) }

// Regions used by the generator.
var Regions = []string{
	"Europe", "Africa", "Asia", "South America", "North America", "Oceania",
	"Middle East",
}

// Currencies deliberately shared across many countries.
var Currencies = []string{
	"Euro", "US Dollar", "CFA Franc", "East Caribbean Dollar", "Pound",
	"Dinar", "Peso", "Rupee", "Krona", "Shilling", "Franc", "Real",
}

// independenceDays includes dates many countries share (as in the real
// factbook: e.g. several countries celebrate 1 January or 15 August).
var independenceDays = []string{
	"1 January", "4 July", "15 August", "1 October", "25 May", "6 March",
	"12 October", "30 June", "9 July", "22 September", "11 November",
	"5 July", "17 August", "2 December",
}

var languages = []string{
	"English", "French", "Spanish", "Arabic", "Portuguese", "Swahili",
	"Russian", "Mandarin", "Hindi", "German", "Dutch", "Italian",
}

// Config controls generation.
type Config struct {
	// Countries is the number generated; 0 means 190.
	Countries int
	// Seed defaults to 1.
	Seed int64
}

// Build generates the factbook into a fresh graph builder.
func Build(cfg Config) *rdf.Builder {
	g := rdf.NewBuilder()
	n := cfg.Countries
	if n <= 0 {
		n = 190
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < n; i++ {
		c := Country(i)
		g.Add(c, rdf.Type, ClassCountry)
		g.Add(c, PropName, rdf.NewString(countryName(i)))
		g.Add(c, PropRegion, rdf.NewString(Regions[rng.Intn(len(Regions))]))
		// Zipf-ish currency choice so the euro/dollar clusters are large.
		g.Add(c, PropCurrency, rdf.NewString(Currencies[zipf(rng, len(Currencies))]))
		g.Add(c, PropIndependence, rdf.NewString(independenceDays[zipf(rng, len(independenceDays))]))
		nLang := rng.Intn(3) + 1
		for j := 0; j < nLang; j++ {
			g.Add(c, PropLanguage, rdf.NewString(languages[zipf(rng, len(languages))]))
		}
		g.Add(c, PropPopulation, rdf.NewString(fmt.Sprintf("%d", (rng.Intn(140_000)+50)*1000)))
		g.Add(c, PropAreaKM, rdf.NewString(fmt.Sprintf("%d", rng.Intn(2_000_000)+700)))
	}
	return g
}

// Annotate adds labels and value types (the §6.1 improvement: "results with
// Magnet improved with label and attribute-value type annotation").
func Annotate(g *rdf.Builder) {
	schema.SetLabel(g, PropName, "Country")
	schema.SetLabel(g, PropRegion, "Region")
	schema.SetLabel(g, PropCurrency, "Currency")
	schema.SetLabel(g, PropIndependence, "Independence day")
	schema.SetLabel(g, PropLanguage, "Language")
	schema.SetLabel(g, PropPopulation, "Population")
	schema.SetLabel(g, PropAreaKM, "Area (sq km)")
	schema.SetValueType(g, PropPopulation, schema.Integer)
	schema.SetValueType(g, PropAreaKM, schema.Integer)
	schema.SetFacet(g, PropRegion)
	schema.SetFacet(g, PropCurrency)
	schema.SetFacet(g, PropIndependence)
}

// countryName builds a pronounceable deterministic name for country i.
func countryName(i int) string {
	starts := []string{"Al", "Be", "Cor", "Dan", "El", "Fre", "Gal", "Hel", "Is", "Jor", "Kal", "Lu", "Mon", "Nor", "Or", "Pan", "Qua", "Ros", "San", "Tur", "Ul", "Ver", "Wes", "Xan", "Yor", "Zam"}
	mids := []string{"a", "e", "i", "o", "u", "ar", "en", "or", "ul"}
	ends := []string{"dia", "land", "stan", "via", "nia", "ria", "burg", "mark", "gard", "tova"}
	return starts[i%len(starts)] + mids[(i/len(starts))%len(mids)] + ends[(i/(len(starts)*len(mids)))%len(ends)]
}

func zipf(rng *rand.Rand, n int) int {
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / float64(i+2)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+2)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

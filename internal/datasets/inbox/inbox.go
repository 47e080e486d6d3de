// Package inbox generates the e-mail dataset of the paper's Figure 6 —
// "data generated by the underlying system ... a collection of e-mails in
// the system's Inbox". The corpus reproduces the three behaviours the paper
// reports:
//
//   - the inbox mixes plain messages with "news items from subscription
//     services", so Magnet "suggested refining by the document type";
//   - each mail's body is a separate document resource with its own type,
//     content, creator and date, and body carries the composition
//     annotation, so Magnet suggests "refining by the type, content,
//     creator and date on the body";
//   - sent dates are real timestamps, so the range control of Figure 5
//     appears ("a range control to refine by the sent dates").
package inbox

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// NS is the dataset namespace.
const NS = "http://magnet.example.org/mail#"

// Vocabulary.
var (
	ClassMessage  = rdf.IRI(NS + "Message")
	ClassNewsItem = rdf.IRI(NS + "NewsItem")
	ClassDocument = rdf.IRI(NS + "Document")
	ClassPerson   = rdf.IRI(NS + "Person")

	PropSubject = rdf.IRI(NS + "subject")
	PropFrom    = rdf.IRI(NS + "from")
	PropSent    = rdf.IRI(NS + "sent")
	PropBody    = rdf.IRI(NS + "body")

	// Body document attributes (the "second level" of Figure 6).
	PropContent = rdf.IRI(NS + "content")
	PropCreator = rdf.IRI(NS + "creator")
	PropDate    = rdf.IRI(NS + "date")

	PropEmail = rdf.IRI(NS + "emailAddress")
)

// Email returns the i-th message resource.
func Email(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%smail/%04d", NS, i)) }

// Person returns a sender resource by name.
func Person(name string) rdf.IRI {
	return rdf.IRI(NS + "person/" + strings.ReplaceAll(strings.ToLower(name), " ", "."))
}

var senders = []string{
	"Alice Chen", "Bob Rivera", "Carol Singh", "Dave Okafor", "Eve Martin",
	"Frank Zhou", "Grace Kim", "Heitor Silva", "Ines Weber", "Jonas Berg",
}

var newsletters = []string{
	"Daily Tech Digest", "Conference Announcements", "Library Updates",
	"Seminar Series",
}

var topics = [][]string{
	{"meeting", "schedule", "agenda", "project", "deadline", "review"},
	{"paper", "draft", "experiments", "results", "figures", "submission"},
	{"lunch", "seminar", "talk", "speaker", "room", "pizza"},
	{"budget", "travel", "reimbursement", "receipts", "forms"},
	{"retrieval", "navigation", "semistructured", "metadata", "interface"},
}

// Config controls generation.
type Config struct {
	// Messages is the inbox size; 0 means 180.
	Messages int
	// Seed defaults to 1.
	Seed int64
	// Start is the earliest sent date; zero means 2003-06-01 (matching the
	// paper's §5.4 example dates).
	Start time.Time
}

// Build generates the inbox into a fresh graph builder, annotations included (this
// dataset is "generated by the underlying system", which knows its schema).
func Build(cfg Config) *rdf.Builder {
	g := rdf.NewBuilder()
	n := cfg.Messages
	if n <= 0 {
		n = 180
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Date(2003, 6, 1, 8, 0, 0, 0, time.UTC)
	}
	rng := rand.New(rand.NewSource(seed))

	for _, name := range senders {
		p := Person(name)
		g.Add(p, rdf.Type, ClassPerson)
		g.Add(p, rdf.Label, rdf.NewString(name))
		g.Add(p, PropEmail, rdf.NewString(strings.ReplaceAll(strings.ToLower(name), " ", ".")+"@example.org"))
	}

	for i := 0; i < n; i++ {
		m := Email(i)
		isNews := rng.Float64() < 0.3
		topic := topics[rng.Intn(len(topics))]
		sent := start.Add(time.Duration(rng.Intn(60*24*60)) * time.Minute)

		var sender rdf.IRI
		var subject string
		if isNews {
			g.Add(m, rdf.Type, ClassNewsItem)
			nl := newsletters[rng.Intn(len(newsletters))]
			sender = Person(nl)
			g.Add(sender, rdf.Type, ClassPerson)
			g.Add(sender, rdf.Label, rdf.NewString(nl))
			subject = fmt.Sprintf("[%s] %s roundup", nl, capitalize(topic[0]))
		} else {
			g.Add(m, rdf.Type, ClassMessage)
			sender = Person(senders[rng.Intn(len(senders))])
			subject = fmt.Sprintf("Re: %s %s", topic[0], topic[1%len(topic)])
		}
		g.Add(m, PropSubject, rdf.NewString(subject))
		g.Add(m, PropFrom, sender)
		g.Add(m, PropSent, rdf.NewTime(sent))

		// Body as a second-level document (Figure 6's composition target).
		body := rdf.IRI(fmt.Sprintf("%sbody/%04d", NS, i))
		g.Add(body, rdf.Type, ClassDocument)
		g.Add(body, PropContent, rdf.NewString(bodyText(rng, topic)))
		g.Add(body, PropCreator, sender)
		g.Add(body, PropDate, rdf.NewTime(sent))
		g.Add(m, PropBody, body)
	}

	annotate(g)
	return g
}

func annotate(g *rdf.Builder) {
	schema.SetLabel(g, PropSubject, "subject")
	schema.SetLabel(g, PropFrom, "from")
	schema.SetLabel(g, PropSent, "sent")
	schema.SetLabel(g, PropBody, "body")
	schema.SetLabel(g, PropContent, "content")
	schema.SetLabel(g, PropCreator, "creator")
	schema.SetLabel(g, PropDate, "date")
	schema.SetValueType(g, PropSent, schema.Date)
	schema.SetValueType(g, PropDate, schema.Date)
	// §6.1: "the annotation that body is an important property to compose
	// with a second level of attributes".
	schema.SetCompose(g, PropBody)
	schema.SetFacet(g, PropFrom)
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}

func bodyText(rng *rand.Rand, topic []string) string {
	words := make([]string, 0, 24)
	for len(words) < 20 {
		words = append(words, topic[rng.Intn(len(topic))])
	}
	return "Regarding the " + strings.Join(words, " ") + "."
}

// Package text implements the text-analysis substrate Magnet's vector space
// model and inverted index are built on: Unicode-aware tokenization,
// stop-word removal, and Porter stemming. The paper (§5) cites the standard
// vector-space improvements — "removing frequently occurring words
// (stop-words), removing common suffixes (stemming)" — and relies on Lucene
// for them; this package provides the same pipeline from scratch.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lower-cased word tokens. A token is a maximal run
// of letters or digits; everything else separates tokens. Apostrophes inside
// words are dropped ("don't" → "dont") so possessives and contractions
// normalize consistently.
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	out := make([]string, 0, len(s)/6+1)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'':
			// swallow apostrophes inside words
		default:
			flush()
		}
	}
	flush()
	return out
}

// defaultStopWords is the classic English stop list used by early Lucene
// (StopAnalyzer.ENGLISH_STOP_WORDS) plus a few high-frequency function words.
var defaultStopWords = map[string]struct{}{}

func init() {
	for _, w := range []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
		"if", "in", "into", "is", "it", "no", "not", "of", "on", "or",
		"such", "that", "the", "their", "then", "there", "these", "they",
		"this", "to", "was", "will", "with", "from", "has", "have", "had",
		"he", "she", "we", "you", "i", "its", "his", "her", "our", "your",
		"were", "been", "do", "does", "did", "can", "could", "would",
		"should", "about", "all", "also", "am", "any", "because", "how",
		"what", "when", "where", "which", "who", "why", "than", "too",
		"very", "s", "t", "just", "so", "them", "some", "more", "most",
		"other", "only", "over", "same", "up", "out",
	} {
		defaultStopWords[w] = struct{}{}
	}
}

// IsStopWord reports whether the (already lower-cased) token is on the
// default English stop list.
func IsStopWord(tok string) bool {
	_, ok := defaultStopWords[tok]
	return ok
}

// Analyzer converts raw text into index terms. It is a small configurable
// pipeline: tokenize, optionally drop stop words, optionally stem, and drop
// tokens shorter than MinLength.
type Analyzer struct {
	// StopWords disabled when false.
	KeepStopWords bool
	// Stem disabled when false.
	NoStem bool
	// MinLength drops tokens shorter than this many runes (0 keeps all).
	MinLength int
}

// DefaultAnalyzer is the pipeline used across Magnet: stop words removed,
// Porter stemming on, tokens of length ≥ 2.
var DefaultAnalyzer = &Analyzer{MinLength: 2}

// Terms runs the pipeline over s and returns the resulting terms, in order,
// with duplicates retained (callers count frequencies).
func (a *Analyzer) Terms(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, tok := range toks {
		if term, ok := a.Term(tok); ok {
			out = append(out, term)
		}
	}
	return out
}

// Term runs the pipeline's per-token steps over one token Tokenize
// returned: it drops a stop word, stems, and drops a term shorter than
// MinLength. ok is false when the token is dropped.
func (a *Analyzer) Term(tok string) (term string, ok bool) {
	if !a.KeepStopWords && IsStopWord(tok) {
		return "", false
	}
	if !a.NoStem {
		tok = Stem(tok)
	}
	if a.MinLength > 0 && len([]rune(tok)) < a.MinLength {
		return "", false
	}
	return tok, true
}

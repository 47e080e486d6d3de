package text

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize checks the tokenizer's contract on arbitrary (including
// invalid-UTF-8) input: it never panics, every token is a non-empty
// lower-cased run of letters and digits, and tokenization is idempotent —
// re-tokenizing a token returns that token unchanged.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"Walnut Winter Soup",
		"don't DON'T d'on't",
		"  spaced   out\ttabs\nnewlines ",
		"ingredient.group: Dairy, 4 servings!",
		"ÉCLAIR über naïve 北京 Ω",
		"'''",
		"a1b2c3",
		"\x00\xff\xfe broken utf8 \x80",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokenize(%q) produced an empty token", s)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("Tokenize(%q): token %q contains separator rune %q", s, tok, r)
				}
				if unicode.ToLower(r) != r {
					t.Fatalf("Tokenize(%q): token %q is not lower-cased", s, tok)
				}
			}
			again := Tokenize(tok)
			if len(again) != 1 || again[0] != tok {
				t.Fatalf("Tokenize not idempotent: Tokenize(%q) = %v", tok, again)
			}
			// Term is Terms' per-token step: analyzing the token alone
			// agrees with analyzing it through Terms.
			term, ok := DefaultAnalyzer.Term(tok)
			if terms := DefaultAnalyzer.Terms(tok); ok != (len(terms) == 1) || (ok && terms[0] != term) {
				t.Fatalf("Term(%q) = %q, %v; Terms = %v", tok, term, ok, terms)
			}
		}
		// Joining the tokens and re-tokenizing must reproduce them: the
		// pipeline is stable under its own output.
		joined := strings.Join(toks, " ")
		if got := Tokenize(joined); len(got) != len(toks) {
			t.Fatalf("re-tokenize count %d != %d for %q", len(got), len(toks), s)
		}
	})
}

// FuzzStem checks the Porter stemmer never panics and always returns a
// non-lengthening, deterministic stem for tokenizer-shaped input.
func FuzzStem(f *testing.F) {
	for _, s := range []string{"caresses", "ponies", "relational", "walnuts", "agreed", "一二三", "xx", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Stem(s)
		if len(got) > len(s) {
			t.Fatalf("Stem(%q) = %q grew the input", s, got)
		}
		if again := Stem(s); again != got {
			t.Fatalf("Stem(%q) nondeterministic: %q vs %q", s, got, again)
		}
	})
}

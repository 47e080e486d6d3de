package text

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Betty bought some butter", []string{"betty", "bought", "some", "butter"}},
		{"don't stop-me now!", []string{"dont", "stop", "me", "now"}},
		{"e-mail:foo@bar.com", []string{"e", "mail", "foo", "bar", "com"}},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"MixedCASE Words", []string{"mixedcase", "words"}},
		{"numbers 42 and 3rd", []string{"numbers", "42", "and", "3rd"}},
		{"čaj über café", []string{"čaj", "über", "café"}},
	}
	for _, tt := range tests {
		if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestIsStopWord(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "with"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"butter", "recipe", "greek"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true, want false", w)
		}
	}
}

func TestAnalyzerTermsDefault(t *testing.T) {
	got := DefaultAnalyzer.Terms("The butter was bitter, but Betty bought better butter")
	want := []string{"butter", "bitter", "betti", "bought", "better", "butter"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerKeepStopWordsNoStem(t *testing.T) {
	a := &Analyzer{KeepStopWords: true, NoStem: true}
	got := a.Terms("the running dogs")
	want := []string{"the", "running", "dogs"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerMinLength(t *testing.T) {
	a := &Analyzer{KeepStopWords: true, NoStem: true, MinLength: 3}
	got := a.Terms("go is an odd fit")
	want := []string{"odd", "fit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTermCounts(t *testing.T) {
	// The paper's §5 example: "Betty bought some butter, but the butter was
	// bitter" — butter appears twice.
	counts := map[string]int{}
	for _, term := range (&Analyzer{NoStem: true, KeepStopWords: true}).Terms(
		"Betty bought some butter, but the butter was bitter") {
		counts[term]++
	}
	if counts["butter"] != 2 {
		t.Errorf("butter count = %d, want 2", counts["butter"])
	}
	for _, w := range []string{"betty", "bought", "some", "bitter"} {
		if counts[w] != 1 {
			t.Errorf("%s count = %d, want 1", w, counts[w])
		}
	}
	if len((&Analyzer{}).Terms("")) != 0 {
		t.Error("Terms of empty string should be empty")
	}
}

// Property: tokenization output tokens are always lowercase and non-empty.
func TestQuickTokenizeInvariants(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

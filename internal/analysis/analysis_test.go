package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads testdata/src/<name> as a standalone package (stdlib
// imports only, no module context).
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// wantRe matches the fixture expectation comments: // want "substr"
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file string
	line int
	sub  string
}

// expectations collects every want comment in the fixture package.
func expectations(pkg *Package) []expectation {
	var wants []expectation
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, expectation{pos.Filename, pos.Line, m[1]})
			}
		}
	}
	return wants
}

// runFixture checks the analyzer's diagnostics against the fixture's want
// comments: every want must be hit, every diagnostic must be wanted.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	wants := expectations(pkg)

	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if !strings.Contains(d.Message, w.sub) {
				t.Errorf("%s: diagnostic %q does not contain want %q", d.Pos, d.Message, w.sub)
			}
			matched[i] = true
			continue outer
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.sub)
		}
	}
}

func TestLockedField(t *testing.T) { runFixture(t, LockedField(), "lockedfield") }
func TestFloatEq(t *testing.T)     { runFixture(t, FloatEq(), "floateq") }
func TestErrWrap(t *testing.T)     { runFixture(t, ErrWrap(), "errwrap") }
func TestMapIter(t *testing.T)     { runFixture(t, MapIter(), "mapiter") }
func TestCtxFirst(t *testing.T)    { runFixture(t, CtxFirst(), "ctxfirst") }
func TestDenseKeys(t *testing.T)   { runFixture(t, DenseKeys(), "densekeys") }
func TestObsHygiene(t *testing.T)  { runFixture(t, ObsHygiene(), "obshygiene") }
func TestGoHygiene(t *testing.T)   { runFixture(t, GoHygiene(), "gohygiene") }
func TestHotAlloc(t *testing.T)    { runFixture(t, HotAlloc(), "hotalloc") }
func TestFrozen(t *testing.T)      { runFixture(t, Frozen(), "frozen") }
func TestLockFlow(t *testing.T)    { runFixture(t, LockFlow(), "lockflow") }
func TestDeadCode(t *testing.T)    { runFixture(t, DeadCode(), "deadcode") }

// TestUnusedIgnore runs floateq over a fixture whose directives are a mix
// of used, stale, and undecidable: only the stale ones are findings.
func TestUnusedIgnore(t *testing.T) { runFixture(t, FloatEq(), "unusedignore") }

// TestGoHygieneExemptsPar checks the one sanctioned goroutine spawner: the
// same fixture loaded under an internal/par import path reports nothing.
func TestGoHygieneExemptsPar(t *testing.T) {
	dir := filepath.Join("testdata", "src", "gohygiene")
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir, "magnet/internal/par")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if diags := Run([]*Package{pkg}, []*Analyzer{GoHygiene()}); len(diags) != 0 {
		t.Errorf("gohygiene flagged internal/par: %v", diags)
	}
}

// TestScopeRestrictsFiles checks that a scoped analyzer skips packages
// outside its path scope entirely.
func TestScopeRestrictsFiles(t *testing.T) {
	pkg := loadFixture(t, "floateq")
	diags := Run([]*Package{pkg}, []*Analyzer{FloatEq("internal/vsm")})
	if len(diags) != 0 {
		t.Errorf("scoped analyzer ran out of scope: %v", diags)
	}
	diags = Run([]*Package{pkg}, []*Analyzer{FloatEq("fixture/floateq")})
	if len(diags) == 0 {
		t.Errorf("analyzer scoped to the fixture's package path found nothing")
	}
}

// TestDiagnosticString pins the file:line:col format CI greps for.
func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "floateq")
	diags := Run([]*Package{pkg}, []*Analyzer{FloatEq()})
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	want := fmt.Sprintf("%s:%d:%d: floateq: ", diags[0].Pos.Filename, diags[0].Pos.Line, diags[0].Pos.Column)
	if !strings.HasPrefix(s, want) {
		t.Errorf("String() = %q, want prefix %q", s, want)
	}
}

// TestRepoIsClean is the acceptance gate, mirroring `make check`: the full
// analyzer set over the whole module, filtered through the committed
// baseline, must report nothing — and the baseline must carry no stale
// entries, so accepted debt can only shrink.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short mode")
	}
	root := filepath.Join("..", "..")
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadModule found only %d packages", len(pkgs))
	}
	diags := Run(pkgs, All())
	data, err := os.ReadFile(filepath.Join(root, "magnet-vet.baseline"))
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	rel := func(name string) string {
		if r, err := filepath.Rel(absRoot, name); err == nil {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(name)
	}
	fresh, stale := ParseBaseline(data).Apply(diags, rel)
	for _, d := range fresh {
		t.Errorf("%s", d)
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry (matches no finding; remove it): %s", e)
	}
}

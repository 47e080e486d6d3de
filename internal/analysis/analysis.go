// Package analysis implements magnet-vet, Magnet's own static-analysis
// suite. It encodes the repository's correctness invariants — the locking
// discipline of the blackboard and its neighbours, float comparison rules in
// scoring code, error wrapping, deterministic ordering of advisor output,
// context placement — as named analyzers with file:line diagnostics, the way
// DataGuide-style structural summaries make semistructured invariants
// machine-checkable instead of tribal.
//
// The package is deliberately standard-library only (go/ast, go/parser,
// go/token, go/types): the module must stay dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// DiagnosticJSON is the machine-readable form of a Diagnostic, the element
// shape of magnet-vet -json output.
type DiagnosticJSON struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// JSON converts the diagnostic, rewriting the file name through rel (used
// to emit module-root-relative slash paths; nil keeps the name verbatim).
func (d Diagnostic) JSON(rel func(string) string) DiagnosticJSON {
	file := d.Pos.Filename
	if rel != nil {
		file = rel(file)
	}
	return DiagnosticJSON{
		Analyzer: d.Analyzer,
		File:     file,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Message:  d.Message,
	}
}

// Analyzer is one named invariant check. Per-package analyzers implement
// Run and see one package at a time; interprocedural analyzers implement
// RunModule and see every loaded package at once, together with the shared
// call graph and fact store. An analyzer implements exactly one of the two.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Scope restricts the analyzer to files whose slash-separated path or
	// package import path contains one of these substrings. Empty means
	// every file.
	Scope []string
	// Run reports findings for one package.
	Run func(*Pass)
	// RunModule reports findings over the whole loaded package set.
	RunModule func(*ModulePass)
}

// Pass hands one package to one analyzer and collects its diagnostics.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Files returns the package files the analyzer's scope admits.
func (p *Pass) Files() []*ast.File {
	if len(p.analyzer.Scope) == 0 {
		return p.Pkg.Syntax
	}
	var out []*ast.File
	for _, f := range p.Pkg.Syntax {
		if scopeAdmits(p.analyzer, fileOf(p.Pkg.Fset, f), p.Pkg.PkgPath) {
			out = append(out, f)
		}
	}
	return out
}

// scopeAdmits reports whether a's scope admits the file (matched on its
// slash-separated path) or the package import path it belongs to.
func scopeAdmits(a *Analyzer, filename, pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	name := strings.ReplaceAll(filename, "\\", "/")
	for _, s := range a.Scope {
		if strings.Contains(name, s) || strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

func fileOf(fset *token.FileSet, f *ast.File) string {
	return strings.ReplaceAll(fset.Position(f.Pos()).Filename, "\\", "/")
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e (nil when unknown).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ModulePass hands the whole loaded package set to one interprocedural
// analyzer: every package, the shared type-resolved call graph, and the
// cross-package fact store. The engine builds Graph and Facts once per Run
// and shares them across all module analyzers, so facts written by one
// (hotalloc's reachability, frozen's mutates-param sets) are readable by
// the next.
type ModulePass struct {
	Pkgs  []*Package
	Graph *CallGraph
	Facts *Facts

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos within pkg.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: mp.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// HasDirective reports whether the comment group carries the given magnet
// directive line (e.g. "//magnet:hot"). Directive comments are matched on
// the raw text — ast.CommentGroup.Text strips "//word:" directive lines, so
// callers cannot use it.
func HasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// ignoreDirective marks lines carrying a "//magnet-vet:ignore [names...]"
// comment; a bare directive silences every analyzer on that line.
var ignoreDirective = regexp.MustCompile(`//magnet-vet:ignore\b(.*)`)

// UnusedIgnore is the analyzer name under which stale suppressions are
// reported: an ignore directive that silenced nothing is itself a finding
// (staticcheck's approach), so suppressions cannot outlive the diagnostics
// they were written for.
const UnusedIgnore = "unusedignore"

// ignore is one parsed //magnet-vet:ignore directive with use tracking.
type ignore struct {
	pos     token.Position // directive position (column of the comment)
	pkgPath string         // import path of the package the directive is in
	bare    bool           // directive without names: silence every analyzer
	names   []string
	used    bool
}

// collectIgnores parses every ignore directive in pkgs, keyed file → line.
func collectIgnores(pkgs []*Package) map[string]map[int]*ignore {
	out := make(map[string]map[int]*ignore)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreDirective.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					lines := out[pos.Filename]
					if lines == nil {
						lines = make(map[int]*ignore)
						out[pos.Filename] = lines
					}
					ig := lines[pos.Line]
					if ig == nil {
						ig = &ignore{pos: pos, pkgPath: pkg.PkgPath}
						lines[pos.Line] = ig
					}
					rest := m[1]
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = rest[:i] // allow a trailing comment after the names
					}
					names := strings.Fields(rest)
					if len(names) == 0 {
						ig.bare = true
					} else {
						ig.names = append(ig.names, names...)
					}
				}
			}
		}
	}
	return out
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics in deterministic position order. Per-package analyzers run
// package by package; interprocedural analyzers run once over the whole set
// against a shared call graph and fact store. Lines carrying a
// magnet-vet:ignore directive for the reporting analyzer are dropped — and
// directives that drop nothing are reported as unusedignore findings, so
// stale suppressions cannot accumulate silently.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var mp *ModulePass
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if mp == nil {
			mp = &ModulePass{Pkgs: pkgs, Graph: BuildCallGraph(pkgs), Facts: NewFacts()}
		}
	}
	for _, a := range analyzers {
		switch {
		case a.RunModule != nil:
			a.RunModule(&ModulePass{Pkgs: pkgs, Graph: mp.Graph, Facts: mp.Facts, analyzer: a, diags: &diags})
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
			}
		}
	}

	ignores := collectIgnores(pkgs)
	kept := diags[:0]
	for _, d := range diags {
		ig := ignores[d.Pos.Filename][d.Pos.Line]
		if ig != nil && (ig.bare || contains(ig.names, d.Analyzer)) {
			ig.used = true
			continue
		}
		kept = append(kept, d)
	}

	// A directive that suppressed nothing is stale — unless it names
	// analyzers that did not actually look at its file (not part of this
	// run, or scoped away from it), in which case we cannot tell. A bare
	// directive claims the full run set: it is checkable as soon as any
	// analyzer in the run admits the file.
	ran := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = a
	}
	for _, lines := range ignores {
		for _, ig := range lines {
			if ig.used {
				continue
			}
			checkable := false
			if ig.bare {
				for _, a := range analyzers {
					if scopeAdmits(a, ig.pos.Filename, ig.pkgPath) {
						checkable = true
						break
					}
				}
			} else {
				checkable = true
				for _, name := range ig.names {
					if a := ran[name]; a == nil || !scopeAdmits(a, ig.pos.Filename, ig.pkgPath) {
						checkable = false
						break
					}
				}
			}
			if !checkable {
				continue
			}
			what := "every analyzer"
			if !ig.bare {
				what = strings.Join(ig.names, ", ")
			}
			kept = append(kept, Diagnostic{
				Pos:      ig.pos,
				Analyzer: UnusedIgnore,
				Message:  fmt.Sprintf("magnet-vet:ignore directive for %s suppresses nothing; remove it", what),
			})
		}
	}

	sortDiagnostics(kept)
	return kept
}

// sortDiagnostics orders diagnostics fully deterministically across
// packages: file, line, column, analyzer, message.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Pos.Filename != ds[j].Pos.Filename {
			return ds[i].Pos.Filename < ds[j].Pos.Filename
		}
		if ds[i].Pos.Line != ds[j].Pos.Line {
			return ds[i].Pos.Line < ds[j].Pos.Line
		}
		if ds[i].Pos.Column != ds[j].Pos.Column {
			return ds[i].Pos.Column < ds[j].Pos.Column
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// All returns the full magnet-vet analyzer set with its production scopes:
// the locked-field check over the concurrent packages, float equality over
// scoring/ranking code, error hygiene and map-iteration determinism
// everywhere, context placement over the web layer, and observability
// hygiene (no raw prints) over all internal packages.
func All() []*Analyzer {
	return []*Analyzer{
		LockedField(),
		FloatEq("internal/vsm", "internal/core/rank.go"),
		ErrWrap(),
		MapIter(),
		CtxFirst("internal/web"),
		DenseKeys("internal/query", "internal/facets", "internal/vsm", "internal/index"),
		ObsHygiene("internal/"),
		GoHygiene("internal/"),
		HotAlloc(),
		Frozen(),
		LockFlow(),
		DeadCode("internal/"),
	}
}

// Unscoped returns the analyzer set with every path scope removed — the
// mode magnet-vet uses on an explicit directory (e.g. a fixture package),
// where all invariants should apply regardless of location.
func Unscoped() []*Analyzer {
	return []*Analyzer{LockedField(), FloatEq(), ErrWrap(), MapIter(), CtxFirst(), DenseKeys(), ObsHygiene(), GoHygiene(), HotAlloc(), Frozen(), LockFlow(), DeadCode()}
}

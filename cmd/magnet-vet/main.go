// Command magnet-vet runs Magnet's own static-analysis suite: named
// analyzers enforcing the repository's correctness invariants (locking
// discipline — per-package and across calls, float comparison rules in
// scoring code, error wrapping, deterministic map-iteration output, context
// placement, dense-ID set discipline, hot-path allocation freedom,
// publish-then-freeze immutability, no dead functions) with file:line
// diagnostics and a CI-friendly exit code.
//
// Usage:
//
//	magnet-vet [-list] [-json] [-baseline file] [-write-baseline file] [./... | dir]
//
// With no argument (or ./...) the whole module containing the working
// directory is checked. A directory argument checks just that package —
// handy for fixture packages under testdata.
//
//	-list            print the analyzers with their package scopes and exit
//	-json            emit findings as a JSON array instead of text lines
//	-baseline file   tolerate the findings recorded in file; stale entries
//	                 (matching nothing) are themselves errors
//	-write-baseline file   write the current findings to file and exit 0
//
// Exit status: 0 clean, 1 findings (or stale baseline entries),
// 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"magnet/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers with their scopes and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	baselinePath := flag.String("baseline", "", "baseline file of accepted findings")
	writeBaseline := flag.String("write-baseline", "", "write current findings to this baseline file and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			scope := "(module-wide)"
			if len(a.Scope) > 0 {
				scope = strings.Join(a.Scope, ", ")
			}
			fmt.Printf("%-22s %-60s %s\n", a.Name, scope, a.Doc)
		}
		return
	}

	pkgs, analyzers, root, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "magnet-vet: %v\n", err)
		os.Exit(2)
	}
	rel := relTo(root)
	diags := analysis.Run(pkgs, analyzers)

	if *writeBaseline != "" {
		if err := os.WriteFile(*writeBaseline, []byte(analysis.FormatBaseline(diags, rel)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "magnet-vet: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "magnet-vet: wrote %d finding(s) to %s\n", len(diags), *writeBaseline)
		return
	}

	var stale []string
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "magnet-vet: %v\n", err)
			os.Exit(2)
		}
		diags, stale = analysis.ParseBaseline(data).Apply(diags, rel)
	}

	if *jsonOut {
		out := make([]analysis.DiagnosticJSON, 0, len(diags))
		for _, d := range diags {
			out = append(out, d.JSON(rel))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "magnet-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "magnet-vet: stale baseline entry (matches no finding; remove it): %s\n", e)
	}
	if len(diags) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "magnet-vet: %d finding(s), %d stale baseline entr(ies)\n", len(diags), len(stale))
		os.Exit(1)
	}
}

// relTo rewrites absolute file names to slash-separated paths relative to
// root, so output (and the committed baseline) is machine-independent.
func relTo(root string) func(string) string {
	return func(name string) string {
		if root == "" {
			return filepath.ToSlash(name)
		}
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(name)
	}
}

// load resolves the target: a directory loads as a single package with the
// unscoped analyzer set (so every invariant applies, e.g. to fixture
// packages), anything else loads the module containing the working
// directory with the production scopes. The third result is the path
// findings are reported relative to.
func load(target string) ([]*analysis.Package, []*analysis.Analyzer, string, error) {
	if target != "" && target != "./..." {
		info, err := os.Stat(target)
		if err != nil {
			return nil, nil, "", err
		}
		if !info.IsDir() {
			return nil, nil, "", fmt.Errorf("%s is not a directory", target)
		}
		l, err := analysis.NewLoader(target)
		if err != nil {
			return nil, nil, "", err
		}
		pkg, err := l.LoadDir(target, filepath.ToSlash(filepath.Clean(target)))
		if err != nil {
			return nil, nil, "", err
		}
		return []*analysis.Package{pkg}, analysis.Unscoped(), "", nil
	}

	root, err := moduleRoot()
	if err != nil {
		return nil, nil, "", err
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		return nil, nil, "", err
	}
	pkgs, err := l.LoadModule()
	return pkgs, analysis.All(), root, err
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenPipeline runs a representative analyzer set over several
// fixture packages loaded through one shared loader and compares the full
// diagnostic stream — text lines and the -json element shape — against
// testdata/golden.txt. One test pins three contracts at once: diagnostics
// are ordered deterministically across packages, ignore directives both
// suppress and report staleness, and the JSON schema stays stable for
// tooling that parses magnet-vet -json.
//
// Regenerate after intentional changes with:
//
//	go test ./internal/analysis -run Golden -update
func TestGoldenPipeline(t *testing.T) {
	fixtures := []string{"floateq", "frozen", "hotalloc", "lockflow", "mapiter", "unusedignore"}
	l, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, name := range fixtures {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, []*Analyzer{FloatEq(), HotAlloc(), Frozen(), LockFlow(), MapIter()})
	if len(diags) == 0 {
		t.Fatal("golden run produced no diagnostics")
	}

	var out bytes.Buffer
	out.WriteString("-- text --\n")
	for _, d := range diags {
		out.WriteString(d.String())
		out.WriteByte('\n')
	}
	jsonDiags := make([]DiagnosticJSON, 0, len(diags))
	for _, d := range diags {
		jsonDiags = append(jsonDiags, d.JSON(filepath.ToSlash))
	}
	js, err := json.MarshalIndent(jsonDiags, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out.WriteString("-- json --\n")
	out.Write(js)
	out.WriteByte('\n')

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("golden mismatch (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

package analysis_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestGolden runs every analyzer over its fixture package and checks
// the diagnostics against the fixture's `// want` comments. The
// hotpathalloc fixture doubles as the negative guarantee: annotated
// functions that do allocate are flagged.
func TestGolden(t *testing.T) {
	for _, a := range analysis.Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			analysistest.Run(t, a, filepath.Join("testdata", "src", a.Name))
		})
	}
}

// TestSuiteNames pins the suite composition and the ByName lookup.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"hotpathalloc", "workerssemantics", "timerpair", "panicdiscipline",
		"floatcompare", "lockdiscipline", "ctxflow", "goroutinelife",
	}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, name := range want {
		if suite[i].Name != name {
			t.Errorf("suite[%d] = %s, want %s", i, suite[i].Name, name)
		}
		if analysis.ByName(name) != suite[i] {
			t.Errorf("ByName(%q) did not return the suite analyzer", name)
		}
	}
	if analysis.ByName("nonesuch") != nil {
		t.Error("ByName(nonesuch) should be nil")
	}
}

// TestUnusedIgnores checks how Run judges //vqelint:ignore directives
// on a fixture with one used and one stale directive: the full suite
// reports exactly the stale one, and a single analyzer judges only the
// directives that name it.
func TestUnusedIgnores(t *testing.T) {
	dir := filepath.Join("testdata", "src", "unusedignore")
	pkg, err := analysis.NewLoader("").LoadFiles("repro/internal/unusedignore",
		[]string{filepath.Join(dir, "unusedignore.go")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		analyzers []*analysis.Analyzer
		want      []string // "line: category" of every diagnostic
	}{
		{"suite", analysis.Suite(), []string{"11: unused-ignore"}},
		{"floatcompare", []*analysis.Analyzer{analysis.FloatCompare}, nil},
		{"lockdiscipline", []*analysis.Analyzer{analysis.LockDiscipline}, []string{"11: unused-ignore"}},
		{"ctxflow", []*analysis.Analyzer{analysis.CtxFlow}, nil},
	} {
		diags, err := analysis.Run(pkg, tc.analyzers)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range diags {
			got = append(got, fmt.Sprintf("%d: %s", pkg.Fset.Position(d.Pos).Line, d.Category))
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: diagnostics %q, want %q", tc.name, got, tc.want)
		}
	}
}

// Package analysistest runs analyzers over golden fixture packages. A
// fixture is a directory of Go files under testdata/src/<name>; expected
// findings are written inline as trailing comments:
//
//	x := telemetry.Now() // want `never observed`
//
// Each `// want` comment holds one or more backquoted regular
// expressions, every one of which must match a diagnostic reported on
// that line; diagnostics on lines without a matching want (and wants
// without a diagnostic) fail the test. This mirrors the
// golang.org/x/tools analysistest contract closely enough that fixtures
// read the same way.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile("`([^`]+)`")

// Run loads the fixture directory as a single package and checks a's
// diagnostics against the fixture's want comments. The package is given
// the synthetic import path "repro/internal/<base name>" so path-scoped
// analyzers (panicdiscipline, workerssemantics) see an internal package;
// a directory named like "cmdfixture_outside" can opt out by containing
// a file "importpath.txt" with the desired path.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg := load(t, dir)
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	check(t, a.Name, pkg, dir, diags)
}

func load(t *testing.T, dir string) *analysis.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []string
	importPath := "repro/internal/" + filepath.Base(dir)
	for _, e := range entries {
		switch {
		case e.Name() == "importpath.txt":
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			importPath = strings.TrimSpace(string(data))
		case strings.HasSuffix(e.Name(), ".go"):
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s holds no Go files", dir)
	}
	// The loader shells out to `go list` for export data; run it from
	// the module root so "repro/..." imports resolve.
	loader := analysis.NewLoader(moduleRoot(t, dir))
	pkg, err := loader.LoadFiles(importPath, files)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.TypeErrors)
	}
	return pkg
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}

type wantKey struct {
	file string
	line int
}

func check(t *testing.T, name string, pkg *analysis.Package, dir string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}

	matched := map[wantKey][]bool{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := wantKey{pos.Filename, pos.Line}
		patterns := wants[key]
		found := false
		for i, re := range patterns {
			if re.MatchString(d.Message) {
				if matched[key] == nil {
					matched[key] = make([]bool, len(patterns))
				}
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, name, d.Message)
		}
	}
	var keys []wantKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, re := range wants[k] {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s:%d: expected %s diagnostic matching %q, got none", k.file, k.line, name, re)
			}
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, fmt.Sprintf("  %s: %s", pkg.Fset.Position(d.Pos), d.Message))
		}
		t.Logf("all %s diagnostics for %s:\n%s", name, dir, strings.Join(all, "\n"))
	}
}

package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
)

// A Package bundles one type-checked package for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors holds non-fatal type-checking problems (analysis
	// proceeds on best-effort type information, like go vet).
	TypeErrors []error
}

// A Loader type-checks packages without any dependency beyond the go
// tool itself: imported types come from compiler export data, located by
// the vet driver's resolver or else with `go list -export` (built into
// the local build cache on demand), so the loader works offline.
type Loader struct {
	// Dir is the working directory for go tool invocations (any
	// directory inside the target module). Empty means the process cwd.
	Dir string

	fset *token.FileSet
	imp  types.Importer

	mu      sync.Mutex
	exports map[string]string // import path → export data file

	// resolver, when set, maps an import path to its export data file
	// without consulting the go tool — the vet driver injects the
	// mapping the go command hands it.
	resolver func(path string) string
}

// SetExportResolver installs an export-data resolver consulted before
// the go tool fallback.
func (l *Loader) SetExportResolver(f func(path string) string) { l.resolver = f }

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l
}

// goList runs `go list` with the given arguments and returns stdout.
func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return out.Bytes(), nil
}

// lookupExport opens the export data for one import path, resolving it
// on first use.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file := l.exports[path]
	l.mu.Unlock()
	if file == "" && l.resolver != nil {
		file = l.resolver(path)
	}
	if file == "" {
		out, err := l.goList("-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, err
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		l.mu.Lock()
		l.exports[path] = file
		l.mu.Unlock()
	}
	return os.Open(file)
}

// LoadFiles parses and type-checks an explicit file list as one package —
// the entry point used by the `go vet -vettool` driver (which receives
// the file list from the go command) and by the analysistest harness
// (which loads fixture directories outside the module proper).
func (l *Loader) LoadFiles(importPath, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: l.fset, Files: asts, Info: info}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(strings.TrimSuffix(importPath, ".test"), l.fset, asts, info)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

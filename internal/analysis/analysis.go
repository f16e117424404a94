// Package analysis is a self-contained static-analysis framework plus a
// suite of project-specific analyzers enforcing the simulator's hot-path
// and concurrency invariants (see the individual analyzer files). The
// framework mirrors the golang.org/x/tools/go/analysis API surface the
// suite needs — Analyzer, Pass, Diagnostic — but is built
// on the standard library alone (go/ast, go/types, and export data
// resolved through `go list -export`), so the module keeps its
// zero-dependency property and the tools work on air-gapped machines.
//
// The suite is driven by cmd/vqelint, a `go vet -vettool` plugin, and by
// the analysistest golden harness under internal/analysis/analysistest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vqelint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the check to one package and reports findings through
	// the pass. A non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker's facts for the package's syntax.
	Info *types.Info

	diagnostics []Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // or NoPos
	Category string    // analyzer name, or "unused-ignore"
	Message  string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Category == "" {
		d.Category = p.Analyzer.Name
	}
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef records a finding spanning the node.
func (p *Pass) ReportRangef(n ast.Node, format string, args ...any) {
	p.Report(Diagnostic{Pos: n.Pos(), End: n.End(), Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (use or definition),
// or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// Run applies every analyzer to the already-loaded package and returns
// the findings sorted by position, with //vqelint:ignore directives
// applied: a finding a directive covers is dropped, and a directive that
// suppresses nothing is itself reported, as an unused-ignore finding. A
// directive is judged only when every analyzer it names ran ("all" needs
// the full suite), so a run of one analyzer never flags directives
// written for another.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ig := collectIgnores(pkg.Fset, pkg.Files)
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
		for _, d := range pass.diagnostics {
			if !ig.ignored(pkg.Fset, d) {
				diags = append(diags, d)
			}
		}
	}
	diags = append(diags, ig.stale(ran)...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Category < diags[j].Category
	})
	return diags, nil
}

// calleeObject resolves the object called by e's function expression
// (an *ast.Ident or *ast.SelectorExpr), or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether call invokes the named function from the
// package with the given import path (or path suffix "…/<path>").
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObject(info, call)
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pkgPathMatches(obj.Pkg().Path(), pkgPath)
}

// pkgPathMatches reports whether got names the package want: exact match,
// or got ends in "/want" (so fixtures loaded under synthetic import paths
// and vendored copies still match).
func pkgPathMatches(got, want string) bool {
	if got == want {
		return true
	}
	n := len(got) - len(want)
	return n > 0 && got[n-1] == '/' && got[n:] == want
}

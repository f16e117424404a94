package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Ignore directives let call sites suppress a finding that is understood
// and intentional (e.g. an exact-zero sparsity skip in a hot loop):
//
//	//vqelint:ignore floatcompare exact-zero skip is intentional
//
// The directive applies to findings of the named analyzers (comma
// separated, or "all") on the directive's own line and on the next line,
// so it works both as a trailing comment and as a line above the
// offending statement. A reason after the analyzer list is encouraged
// but not enforced.
//
// Directives that suppress nothing are stale; Run reports them as
// unused-ignore findings so the suppression inventory never outlives the
// findings it was written for. A directive is only judged stale when
// every analyzer it names actually ran ("all" requires the full suite),
// so a run of a single analyzer cannot misreport.
const ignorePrefix = "//vqelint:ignore"

// hotpathDirective marks a function whose body must stay allocation-free;
// it is recognized by the hotpathalloc analyzer in a func's doc comment or
// on the line immediately above a function literal.
const hotpathDirective = "//vqesim:hotpath"

// A directive is one parsed //vqelint:ignore comment.
type directive struct {
	pos   token.Pos
	names []string
	used  bool
}

type ignoreSet struct {
	// byLine maps file:line to the directives covering that line.
	byLine map[string][]*directive
	all    []*directive
}

func lineKey(fset *token.FileSet, pos token.Pos) (string, int) {
	p := fset.Position(pos)
	return p.Filename, p.Line
}

func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	ig := &ignoreSet{byLine: map[string][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				var names []string
				for _, n := range strings.Split(fields[0], ",") {
					if n = strings.TrimSpace(n); n != "" {
						names = append(names, n)
					}
				}
				if len(names) == 0 {
					continue
				}
				d := &directive{pos: c.Pos(), names: names}
				ig.all = append(ig.all, d)
				file, line := lineKey(fset, c.Pos())
				for _, ln := range []int{line, line + 1} {
					key := ignoreKey(file, ln)
					ig.byLine[key] = append(ig.byLine[key], d)
				}
			}
		}
	}
	return ig
}

func ignoreKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// ignored reports whether d is suppressed by a directive and, if so,
// marks the first matching directive used (for staleness accounting).
func (ig *ignoreSet) ignored(fset *token.FileSet, d Diagnostic) bool {
	file, line := lineKey(fset, d.Pos)
	for _, dir := range ig.byLine[ignoreKey(file, line)] {
		for _, n := range dir.names {
			if n == d.Category || n == "all" {
				dir.used = true
				return true
			}
		}
	}
	return false
}

// stale reports, as unused-ignore findings, the directives that
// suppressed nothing and whose every named analyzer ran ("all" is judged
// only when every suite analyzer ran).
func (ig *ignoreSet) stale(ran map[string]bool) []Diagnostic {
	all := true
	for _, a := range Suite() {
		all = all && ran[a.Name]
	}
	var out []Diagnostic
	for _, d := range ig.all {
		if d.used {
			continue
		}
		judgeable := true
		for _, n := range d.names {
			judgeable = judgeable && (ran[n] || n == "all" && all)
		}
		if judgeable {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Category: "unused-ignore",
				Message:  fmt.Sprintf("stale //vqelint:ignore %s: it suppresses nothing; delete it", strings.Join(d.names, ",")),
			})
		}
	}
	return out
}

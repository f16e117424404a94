// Command vqelint runs the project's static-analysis suite (see
// internal/analysis): hotpathalloc, workerssemantics, timerpair,
// panicdiscipline, floatcompare, lockdiscipline, ctxflow, and
// goroutinelife — the machine-checked form of the invariants the
// engine's performance and concurrency claims rest on.
//
// Standalone over package patterns:
//
//	go run ./cmd/vqelint ./...
//	go run ./cmd/vqelint -fix ./internal/...   # apply suggested fixes
//	go run ./cmd/vqelint -only lockdiscipline,ctxflow ./internal/server/
//	go run ./cmd/vqelint -sarif vqelint.sarif ./...
//	go run ./cmd/vqelint -update-baseline ./...
//	go run ./cmd/vqelint -unused-ignores ./...
//
// Findings recorded in lint_baseline.json at the module root are
// accepted debt: they are counted but do not fail the run. The baseline
// is keyed by analyzer + file + function + message hash (never line
// numbers), loaded automatically (-baseline auto) or from an explicit
// path; -baseline none disables it. -update-baseline rewrites the file
// from the current findings.
//
// As a go vet tool (the form CI uses, so vet's caching and test-file
// coverage apply; the baseline is auto-discovered at the module root
// because vet forwards no tool flags):
//
//	go build -o bin/vqelint ./cmd/vqelint
//	go vet -vettool=bin/vqelint ./...
//
// Exit status: 0 clean, 1 internal error, 2 findings reported (or stale
// ignores with -unused-ignores).
package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// baselineFile is the committed baseline's name at the module root.
const baselineFile = "lint_baseline.json"

func main() {
	// `go vet -vettool` handshakes: version/cache fingerprint and flag
	// discovery happen before any cfg is passed.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V=") {
		fmt.Println("vqelint version 1.1.0")
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}

	var (
		fix       = flag.Bool("fix", false, "apply suggested fixes to the source files")
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list      = flag.Bool("list", false, "list the suite's analyzers and exit")
		js        = flag.Bool("json", false, "emit diagnostics as JSON")
		sarifPath = flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
		baseline  = flag.String("baseline", "auto", `baseline file: "auto" finds lint_baseline.json at the module root, "none" disables`)
		update    = flag.Bool("update-baseline", false, "rewrite the baseline from the current findings and exit")
		unused    = flag.Bool("unused-ignores", false, "report //vqelint:ignore directives that suppress nothing")
	)
	flag.Parse()

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetTool(args[0], analyzers))
	}
	os.Exit(runStandalone(args, analyzers, options{
		fix:       *fix,
		js:        *js,
		sarifPath: *sarifPath,
		baseline:  *baseline,
		update:    *update,
		unused:    *unused,
	}))
}

type options struct {
	fix       bool
	js        bool
	sarifPath string
	baseline  string
	update    bool
	unused    bool
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analysis.Suite(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := analysis.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// isFullSuite reports whether the selection covers every suite analyzer
// (which is what judging `//vqelint:ignore all` staleness requires).
func isFullSuite(analyzers []*analysis.Analyzer) bool {
	if len(analyzers) != len(analysis.Suite()) {
		return false
	}
	have := map[string]bool{}
	for _, a := range analyzers {
		have[a.Name] = true
	}
	for _, a := range analysis.Suite() {
		if !have[a.Name] {
			return false
		}
	}
	return true
}

// resolveBaselinePath turns the -baseline flag into a file path ("" = no
// baseline). mode "auto" walks up from dir to the module root.
func resolveBaselinePath(mode, dir string) string {
	switch mode {
	case "", "none":
		return ""
	case "auto":
		if root := analysis.FindModuleRoot(dir); root != "" {
			return filepath.Join(root, baselineFile)
		}
		return ""
	default:
		return mode
	}
}

// A finding is one kept diagnostic with its resolved position and
// baseline key material.
type finding struct {
	pos   token.Position
	diag  analysis.Diagnostic
	entry analysis.BaselineEntry
}

// runStandalone loads packages by pattern with the loader and analyzes
// them in place.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, opts options) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	baselinePath := resolveBaselinePath(opts.baseline, ".")
	var base *analysis.Baseline
	if baselinePath != "" && !opts.update {
		base, err = analysis.LoadBaseline(baselinePath)
		if err != nil {
			fatal(err)
		}
	} else {
		base = &analysis.Baseline{Version: analysis.BaselineVersion}
	}
	matcher := analysis.NewBaselineMatcher(base)
	modRoot := analysis.FindModuleRoot(".")
	complete := isFullSuite(analyzers)

	var (
		kept       []finding
		baselined  int
		suppressed int
		stale      []finding // position-resolved stale directives
	)
	for _, pkg := range pkgs {
		res, err := analysis.RunDetailed(pkg, analyzers, complete)
		if err != nil {
			fatal(err)
		}
		suppressed += res.Suppressed
		for _, s := range res.Stale {
			stale = append(stale, finding{
				pos:  pkg.Fset.Position(s.Pos),
				diag: analysis.Diagnostic{Category: "unused-ignore", Message: fmt.Sprintf("stale //vqelint:ignore %s: it suppresses nothing; delete it", strings.Join(s.Names, ","))},
			})
		}
		diags := res.Diagnostics
		if opts.fix && len(diags) > 0 {
			diags, err = applyFixes(pkg, diags)
			if err != nil {
				fatal(err)
			}
		}
		for _, d := range diags {
			f := finding{
				pos:   pkg.Fset.Position(d.Pos),
				diag:  d,
				entry: analysis.EntryFor(pkg.Fset, pkg.Files, modRoot, d),
			}
			if !opts.update && matcher.Match(f.entry) {
				baselined++
				continue
			}
			kept = append(kept, f)
		}
	}

	if opts.update {
		if baselinePath == "" {
			baselinePath = baselineFile
		}
		// A clean tree writes "findings": [], not null.
		out := &analysis.Baseline{Version: analysis.BaselineVersion, Findings: []analysis.BaselineEntry{}}
		agg := map[string]*analysis.BaselineEntry{}
		for _, f := range kept {
			e := f.entry
			key := e.Analyzer + "\x00" + e.File + "\x00" + e.Func + "\x00" + e.Hash
			if prev, ok := agg[key]; ok {
				prev.Count++
			} else {
				copy := e
				agg[key] = &copy
			}
		}
		for _, e := range agg {
			out.Findings = append(out.Findings, *e)
		}
		if err := analysis.WriteBaseline(baselinePath, out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vqelint: wrote %d baseline entr%s to %s\n",
			len(out.Findings), plural(len(out.Findings), "y", "ies"), baselinePath)
		return 0
	}

	if opts.sarifPath != "" {
		if err := writeSARIF(opts.sarifPath, modRoot, analyzers, kept); err != nil {
			fatal(err)
		}
	}

	if opts.js {
		all := make([]jsonDiag, 0, len(kept))
		for _, f := range kept {
			all = append(all, jsonDiag{
				File: f.pos.Filename, Line: f.pos.Line, Col: f.pos.Column,
				Analyzer: f.diag.Category, Message: f.diag.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range kept {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", f.pos, f.diag.Category, f.diag.Message)
		}
	}
	if opts.unused {
		for _, f := range stale {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.pos, f.diag.Message)
		}
	}
	fmt.Fprintf(os.Stderr, "vqelint: %d finding%s, %d baselined, %d suppressed by directives, %d stale ignore%s\n",
		len(kept), plural(len(kept), "", "s"), baselined, suppressed,
		len(stale), plural(len(stale), "", "s"))

	if len(kept) > 0 || (opts.unused && len(stale) > 0) {
		return 2
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// applyFixes rewrites the package's files with every suggested fix and
// returns the diagnostics that had no fix (still outstanding).
func applyFixes(pkg *analysis.Package, diags []analysis.Diagnostic) ([]analysis.Diagnostic, error) {
	type edit struct {
		start, end int
		text       []byte
	}
	perFile := map[string][]edit{}
	var remaining []analysis.Diagnostic
	for _, d := range diags {
		if len(d.SuggestedFixes) == 0 {
			remaining = append(remaining, d)
			continue
		}
		for _, te := range d.SuggestedFixes[0].TextEdits {
			p0, p1 := pkg.Fset.Position(te.Pos), pkg.Fset.Position(te.End)
			if p0.Filename != p1.Filename {
				return nil, fmt.Errorf("fix spans files: %s vs %s", p0.Filename, p1.Filename)
			}
			perFile[p0.Filename] = append(perFile[p0.Filename], edit{p0.Offset, p1.Offset, te.NewText})
		}
	}
	for file, edits := range perFile {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		prev := len(src) + 1
		for _, e := range edits {
			if e.end > prev || e.end > len(src) || e.start > e.end {
				return nil, fmt.Errorf("overlapping or out-of-range fixes in %s", file)
			}
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
			prev = e.start
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "vqelint: fixed %d site(s) in %s\n", len(edits), file)
	}
	return remaining, nil
}

// vetConfig is the JSON unit-checking protocol the go command speaks to
// -vettool binaries: one invocation per package, files and export-data
// locations supplied, facts exchanged through the Vetx files (this suite
// is fact-free, so an empty gob is written).
type vetConfig struct {
	ID           string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string

	SucceedOnTypecheckFailure bool
}

func runVetTool(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing vet config %s: %v", cfgPath, err))
	}
	if cfg.VetxOutput != "" {
		if err := writeEmptyVetx(cfg.VetxOutput); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0 // downstream packages only need our (empty) facts
	}

	loader := analysis.NewLoader(cfg.Dir)
	loader.SetExportResolver(func(path string) string {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		return cfg.PackageFile[path]
	})
	var files []string
	for _, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		files = append(files, f)
	}
	pkg, err := loader.LoadFiles(cfg.ImportPath, cfg.Dir, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		fatal(err)
	}
	// go vet forwards no tool flags, so the baseline is auto-discovered
	// at the module root (same default as standalone -baseline auto).
	modRoot := analysis.FindModuleRoot(cfg.Dir)
	matcher := analysis.NewBaselineMatcher(&analysis.Baseline{Version: analysis.BaselineVersion})
	if modRoot != "" {
		if base, err := analysis.LoadBaseline(filepath.Join(modRoot, baselineFile)); err == nil {
			matcher = analysis.NewBaselineMatcher(base)
		}
	}
	exit := 0
	for _, d := range diags {
		if matcher.Match(analysis.EntryFor(pkg.Fset, pkg.Files, modRoot, d)) {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Category, d.Message)
		exit = 2
	}
	return exit
}

// writeEmptyVetx satisfies the protocol's facts output: the go command
// requires the file to exist after the tool runs.
func writeEmptyVetx(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// An empty gob stream is a valid "no facts" payload for any reader.
	_ = gob.NewEncoder(f)
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vqelint:", err)
	os.Exit(1)
}

// Command vqelint runs the project's static-analysis suite (see
// internal/analysis): hotpathalloc, workerssemantics, timerpair,
// panicdiscipline, floatcompare, lockdiscipline, ctxflow, and
// goroutinelife — the machine-checked form of the invariants the
// engine's performance and concurrency claims rest on.
//
// It runs one way, as a go vet tool, so vet's caching and its test-file
// coverage apply:
//
//	go build -o bin/vqelint ./cmd/vqelint
//	go vet -vettool=$(pwd)/bin/vqelint ./...
//
// A finding that is understood and intentional is suppressed with a
// `//vqelint:ignore <analyzer> <reason>` comment on its line or the line
// above; a directive that suppresses nothing is reported as an
// unused-ignore finding.
//
// The tool accepts only the vet handshake (-V=…, -flags) and the .cfg
// path of one unit. Exit status: 0 clean, 1 internal error, 2 findings
// reported (go vet itself then exits non-zero).
package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	switch {
	case len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V="):
		// Version/cache fingerprint for go vet.
		fmt.Println("vqelint version 2.0.0")
	case len(os.Args) == 2 && os.Args[1] == "-flags":
		// Flag discovery: the tool takes none.
		fmt.Println("[]")
	case len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg"):
		os.Exit(runVetTool(os.Args[1]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(pwd)/bin/vqelint ./...")
		os.Exit(1)
	}
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

func runVetTool(cfgPath string) int {
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
	pkg, err := loader.LoadFiles(cfg.ImportPath, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	diags, err := analysis.Run(pkg, analysis.Suite())
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Category, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
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

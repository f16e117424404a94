package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/bench/probe"
)

// runRecord is one single-workload run as the set mode stores it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Pass     int    `json:"pass"`
	Traced   bool   `json:"traced"`
	result
}

// resultFile is what set mode writes and -compare reads.
type resultFile struct {
	Header map[string]any `json:"header"`
	Runs   []runRecord    `json:"runs"`
}

// runSet runs every workload, each in a child process of its own so that
// rss_mb is the workload's and not the set's, passes times over.
func runSet(root string, seed uint64, seconds float64, passes int, stepSeed, traced bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	rf := resultFile{Header: header(root, seed, seconds)}
	fmt.Println("# vqebench set", headerLine(rf.Header))
	status := 0
	child := func(w string, s uint64, pass int, tr bool) {
		t := "0"
		if tr {
			t = "1"
		}
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
		cmd.Stderr = os.Stderr
		// A killed set must not leave its workload running: the child
		// gets SIGTERM, on which it reaps its daemon and removes its spool.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		data, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		last := lines[len(lines)-1]
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		rec := runRecord{Workload: w, Seed: s, Pass: pass, Traced: tr}
		if jsonErr := json.Unmarshal([]byte(last), &rec.result); jsonErr != nil {
			fmt.Println(last)
			fmt.Fprintf(os.Stderr, "vqebench: %s ended without a result: %v\n", w, err)
			status = 1
			return
		}
		if err != nil || !rec.Correct {
			status = 1
		}
		rf.Runs = append(rf.Runs, rec)
	}
	for pass := 0; pass < passes; pass++ {
		s := seed
		if stepSeed {
			s += uint64(pass)
		}
		for _, w := range workloads {
			child(w.name, s, pass, false)
		}
	}
	if traced {
		for _, w := range workloads {
			child(w.name, seed, 0, true)
		}
	}

	out := filepath.Join(root, "bench", "out", fmt.Sprintf("results_%d.json", seed))
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
		data, _ := json.MarshalIndent(rf, "", " ")
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		status = 1
	}
	fmt.Println("results:", out)
	printSummary(rf)
	if passes >= 2 {
		half := (passes + 1) / 2
		var a, b resultFile
		for _, r := range rf.Runs {
			if r.Pass < half {
				a.Runs = append(a.Runs, r)
			} else {
				b.Runs = append(b.Runs, r)
			}
		}
		if !printComparison(a, b, fmt.Sprintf("passes 1-%d", half), fmt.Sprintf("passes %d-%d", half+1, passes)) {
			status = 1
		}
	}
	return status
}

// values collects one end-to-end metric of one workload over the untraced
// runs of a file.
func (rf resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// printSummary prints, per workload and end-to-end metric, the median over
// the passes and the spread the acceptance check looks at.
func printSummary(rf resultFile) {
	fmt.Println("\nend-to-end summary (median over passes; spread = (q3-q1)/median, accepted below the bound, aimed below a third of it)")
	fmt.Printf("  %-12s %-12s %3s %14s %-4s %8s %6s\n", "workload", "metric", "n", "median", "unit", "spread", "bound")
	attempted, failed := 0, 0
	for _, r := range rf.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	for _, w := range workloads {
		for _, def := range endToEnd {
			v := rf.values(w.name, def.name)
			if len(v) == 0 {
				continue
			}
			sp := "-"
			if len(v) >= 2 {
				sp = fmt.Sprintf("%.4f", spread(v))
			}
			fmt.Printf("  %-12s %-12s %3d %14.4f %-4s %8s %6.2f\n", w.name, def.name, len(v), probe.Median(v), def.unit, sp, def.bound)
		}
	}
	fmt.Println("  named as in ISSUE 13:")
	for _, a := range aliases {
		if v := rf.values(a.workload, a.metric); len(v) > 0 {
			fmt.Printf("  %-12s %-12s %3d %14.4f %-4s\n", a.workload, a.name, len(v), probe.Median(v)*a.scale, a.unit)
		}
	}
	fmt.Printf("  failed_share %.6g (%d failed of %d attempted; bound: absolute 0)\n", probe.Ratio(float64(failed), float64(attempted)), failed, attempted)
}

// printComparison prints both medians, the relative gap and the bound for
// every end-to-end metric × workload, and reports whether b is within the
// bound of a everywhere. A gap is positive when b is worse.
func printComparison(a, b resultFile, nameA, nameB string) bool {
	fmt.Printf("\ncomparison: %s vs %s (gap > 0: the second is worse)\n", nameA, nameB)
	fmt.Printf("  %-12s %-12s %14s %14s %8s %6s\n", "workload", "metric", "median A", "median B", "gap", "bound")
	ok := true
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.name, def.name), b.values(w.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := probe.Median(va), probe.Median(vb)
			gap := (mb - ma) / ma
			if def.better == "higher" {
				gap = (ma - mb) / ma
			}
			verdict := ""
			if gap > def.bound {
				verdict, ok = "  OVER BOUND", false
			}
			fmt.Printf("  %-12s %-12s %14.4f %14.4f %+8.4f %6.2f%s\n", w.name, def.name, ma, mb, gap, def.bound, verdict)
		}
	}
	for name, rf := range map[string]resultFile{nameA: a, nameB: b} {
		for _, r := range rf.Runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("  %s: %s seed %d: %d of %d operations failed\n", name, r.Workload, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	return ok
}

func compareFiles(pathA, pathB string) int {
	load := func(path string) (resultFile, error) {
		var rf resultFile
		data, err := os.ReadFile(path)
		if err != nil {
			return rf, err
		}
		return rf, json.Unmarshal(data, &rf)
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	fmt.Println("A:", pathA, headerLine(a.Header))
	fmt.Println("B:", pathB, headerLine(b.Header))
	if !printComparison(a, b, pathA, pathB) {
		return 1
	}
	return 0
}

// goldenWide maps a seed to the wide20 golden energy; loadGolden fills it
// from bench/golden.json when the file is there.
var goldenWide = map[uint64]float64{}

type goldenFile struct {
	// Wide20 maps a seed to the best energy of the initial Nelder–Mead
	// simplex of that seed's first run, computed with fusion off.
	Wide20 map[string]float64 `json:"wide20_first_energy"`
}

func loadGolden(root string) {
	data, err := os.ReadFile(filepath.Join(root, "bench", "golden.json"))
	if err != nil {
		return
	}
	var g goldenFile
	if json.Unmarshal(data, &g) != nil {
		return
	}
	for k, v := range g.Wide20 {
		if s, err := strconv.ParseUint(k, 10, 64); err == nil {
			goldenWide[s] = v
		}
	}
}

// verifyGolden recomputes the wide20 golden energy of a seed with fusion
// off — the plain interpreter — and compares it with bench/golden.json and
// with what the fused path computes for the same seed.
func verifyGolden(ctx context.Context, cfg config, root string) int {
	loadGolden(root)
	w := newWide20(cfg)
	plain, err := w.firstEnergy(ctx, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 1
	}
	fused, err := w.firstEnergy(ctx, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 1
	}
	fmt.Printf("wide20 seed %d: first energy, fusion off %.12f, fusion on %.12f\n", cfg.seed, plain, fused)
	fmt.Printf("golden.json entry: \"%d\": %.12f\n", cfg.seed, plain)
	status := 0
	if d := plain - fused; d > 1e-8 || d < -1e-8 {
		fmt.Println("FAILED CHECK: fused and plain interpreters disagree")
		status = 1
	}
	if g, ok := goldenWide[cfg.seed]; ok {
		if d := plain - g; d > 1e-8 || d < -1e-8 {
			fmt.Printf("FAILED CHECK: golden.json has %.12f\n", g)
			status = 1
		} else {
			fmt.Println("matches bench/golden.json")
		}
	}
	return status
}

// Command vqebench is the repository's benchmark: four named workloads,
// end-to-end metrics measured with tracing off, and a per-layer trace.
//
// One workload, the form the acceptance driver calls (through run.sh):
//
//	vqebench --workload serve_mix --seed 7 --seconds 20 --trace 0
//
// prints a report and, as the last line of standard output, one JSON
// object {"correct","attempted","failed","metrics"}; --trace 1 reports the
// per-layer metrics instead and leaves bench/out/trace_<workload>.json.
//
// The whole set, the form people call:
//
//	vqebench -seed 1             every workload once, tracing off
//	vqebench -seed 1 -trace 1    the same, then every workload traced
//	vqebench -repeat 2           two passes, then both medians, gap and bound
//	vqebench -compare a.json b.json
//	vqebench -verify -seed 3     recompute the wide20 golden energy for a seed
//
// It runs from the repository root, where run.sh puts it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/bench/probe"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and end with the result JSON line")
		seed         = flag.Uint64("seed", 1, "workload seed: the only input of the generators")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (set mode: add a traced pass)")
		repeat       = flag.Int("repeat", 1, "set mode: number of passes over every workload")
		stepSeed     = flag.Bool("step-seed", false, "set mode: pass i uses seed+i instead of the same seed")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
		verify       = flag.Bool("verify", false, "recompute the wide20 golden energy for -seed with fusion off")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vqebench: -compare takes two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	runtime.GOMAXPROCS(benchProcs)
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "cmd", "vqed"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench: run from the repository root, as bench/run.sh does:", err)
		return 2
	}
	if err := requireDefaultTuning(); err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	traced := *trace == 1

	if *workloadName == "" && !*verify {
		return runSet(root, *seed, *seconds, *repeat, *stepSeed, traced)
	}

	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	// Children are reaped and the temp spool removed however the run
	// ends: normally, on a failed check, or on SIGINT/SIGTERM.
	cleanup := func() {
		killAllChildren()
		_ = os.RemoveAll(tmp)
	}
	defer cleanup()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		cleanup()
		os.Exit(130)
	}()

	cfg := config{seed: *seed, seconds: *seconds, tmp: tmp,
		probe: probe.Env{Reps: 20, Budget: 2 * time.Second}, setUps: 5}
	if *verify {
		return verifyGolden(ctx, cfg, root)
	}
	info, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "vqebench: unknown workload %q\n", *workloadName)
		return 2
	}
	// A single run has 180 s; a traced wide20 run, the longest, takes 60.
	// Whatever hangs past 170 s is reported as a failure, not waited for.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "vqebench:", info.name+": no result after 170 s, giving up")
		cleanup()
		os.Exit(3)
	})
	cfg.vqed, err = buildDaemon(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", err)
		return 2
	}
	loadGolden(root)
	hdr := header(root, *seed, *seconds)
	fmt.Println("# vqebench", info.name, headerLine(hdr))
	res, err := runWorkload(ctx, cfg, info, traced, outDir, hdr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vqebench:", info.name+":", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload is one run of one workload: several set-ups, the measured
// window (split in three when traced: tracing off, on, off), the
// correctness checks, and — traced — the per-layer metrics.
func runWorkload(ctx context.Context, cfg config, info workloadInfo, traced bool, outDir string, hdr map[string]any) (result, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	// Probe repetitions land in the trace beside the window's own spans;
	// they belong to no operation (op 0).
	cfg.probe.Span = func(name string, start, end time.Time) { rec.add("probe."+name, 0, 0, start, end) }
	w := info.new(cfg)
	var setupS []float64
	// At least cfg.setUps set-ups, and more — up to three times as many —
	// while together they stay under 15 % of the window: a 40 ms set-up
	// needs more repetitions than a 1 s one before its median stops moving
	// with the host's mood.
	d := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	for i := 0; ; i++ {
		start := time.Now()
		if err := w.setUp(ctx); err != nil {
			w.tearDown()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i+1 >= 3*cfg.setUps || i+1 >= cfg.setUps && time.Since(begin) > d*15/100 {
			break
		}
		w.tearDown()
	}
	defer w.tearDown()

	var all, tracedWin window
	overhead := 0.0
	sampler := sampleRSS(w.workPID())
	if !traced {
		all = w.measure(ctx, d, nil)
	} else {
		// Tracing off, on, off: a quarter, a half and a quarter of the
		// window, so a drift over the run falls on both sides alike.
		all = w.measure(ctx, d/4, nil)
		tracedWin = w.measure(ctx, d/2, rec)
		all.merge(w.measure(ctx, d/4, nil))
		overhead = 1 - probe.Ratio(probe.Ratio(tracedWin.work, tracedWin.wall.Seconds()), probe.Ratio(all.work, all.wall.Seconds()))
		all.merge(tracedWin)
	}
	rss, peak := sampler.median(), peakRSSMB(w.workPID())
	problems := w.verify(ctx)

	res := result{
		Correct:   len(problems) == 0 && all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed + len(problems),
		Metrics:   map[string]metricValue{},
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	for _, p := range problems {
		fmt.Println("FAILED CHECK:", p)
	}

	e2e := map[string]float64{
		"setup_s":    probe.Median(setupS),
		"work_per_s": probe.Ratio(all.work, all.wall.Seconds()),
		"op_p50_ms":  probe.Median(all.latMs),
		"rss_mb":     rss,
	}
	printEndToEnd(info, all, setupS, e2e, res)
	if !traced {
		for _, def := range endToEnd {
			res.Metrics[def.name] = metricValue{e2e[def.name], def.unit}
		}
		return res, nil
	}

	layer, err := w.layers(ctx, rec)
	if err != nil {
		return result{}, fmt.Errorf("per-layer probes: %w", err)
	}
	jm, err := probe.Journal(cfg.probe, cfg.tmp)
	if err != nil {
		return result{}, fmt.Errorf("journal probe: %w", err)
	}
	layer.Add(jm)
	layer["telemetry.trace_overhead_share"] = overhead
	layer["process.peak_rss_mb"] = peak
	tf := traceFile{Workload: info.name, Seed: cfg.seed, Header: hdr,
		Metrics: map[string]float64{}, Spans: rec.snapshot()}
	for _, def := range perLayer {
		v, ok := layer[def.name]
		if !ok {
			tf.OffPath = append(tf.OffPath, def.name)
		}
		tf.Metrics[def.name] = v
		res.Metrics[def.name] = metricValue{v, def.unit}
	}
	path, err := writeTrace(outDir, &tf)
	if err != nil {
		return result{}, err
	}
	printPerLayer(tf, path)
	return res, nil
}

func printEndToEnd(info workloadInfo, w window, setupS []float64, e2e map[string]float64, res result) {
	fmt.Printf("workload %s: %s\n", info.name, info.why)
	fmt.Printf("  window %.2f s, %d operations attempted, %d failed, %.0f %s completed, failed_share %.4g\n",
		w.wall.Seconds(), res.Attempted, res.Failed, w.work, info.unit, probe.Ratio(float64(res.Failed), float64(res.Attempted)))
	for _, def := range endToEnd {
		fmt.Printf("  %-12s %12.4f %-4s (%s is better, bound %.2f)", def.name, e2e[def.name], def.unit, def.better, def.bound)
		switch def.name {
		case "setup_s":
			q1, q3 := quartiles(setupS)
			fmt.Printf("  n=%d q1=%.4f q3=%.4f", len(setupS), q1, q3)
		case "op_p50_ms":
			q1, q3 := quartiles(w.latMs)
			fmt.Printf("  %s; n=%d q1=%.4f q3=%.4f", info.op, len(w.latMs), q1, q3)
			if p, ok := highestTail(len(w.latMs)); ok {
				fmt.Printf(" p%g=%.4f", p, probe.Percentile(w.latMs, p))
			}
		case "work_per_s":
			fmt.Printf("  %s per second", info.unit)
		}
		fmt.Println()
	}
	for _, a := range aliases {
		if a.workload == info.name {
			fmt.Printf("  %-12s %12.4f %-4s (= %s)\n", a.name, e2e[a.metric]*a.scale, a.unit, a.metric)
		}
	}
}

func printPerLayer(tf traceFile, path string) {
	off := map[string]bool{}
	for _, n := range tf.OffPath {
		off[n] = true
	}
	fmt.Printf("  per-layer metrics (trace: %s, %d spans)\n", path, len(tf.Spans))
	for _, def := range perLayer {
		note := ""
		if off[def.name] {
			note = "  (layer not on this workload's path)"
		}
		fmt.Printf("    %-34s %16.6g %-5s%s\n", def.name, tf.Metrics[def.name], def.unit, note)
	}
	names := make([]string, 0, len(tf.SelfMs))
	for n := range tf.SelfMs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("  self time by span name (ms):")
	for _, n := range names {
		fmt.Printf("    %-34s %16.3f\n", n, tf.SelfMs[n])
	}
}

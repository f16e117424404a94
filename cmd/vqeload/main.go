// Command vqeload is the serving-scale load harness for vqed. It drives
// a live daemon with open-loop (poisson, mmpp, diurnal) or closed-loop
// (fixed concurrency) traffic over weighted RunSpec mixes, records
// per-job latency/queue/SLO outcomes plus periodic /v1/metrics
// snapshots, and writes a machine-readable load_report.json.
//
//	vqeload run   -self -mode closed -concurrency 4 -duration 30s -mix smoke -report load_report.json
//	vqeload run   -addr http://127.0.0.1:8931 -mode open -arrival poisson -rate 20 -duration 60s -mix serving
//	vqeload chaos -addr http://127.0.0.1:8931 -duration 30s -expect-restarts 3 -out chaos_report.json
//	vqeload report -in load_report.json -md
//
// `run` exits non-zero when -fail-p99 / -min-slo gates trip, which is how
// CI turns a latency regression into a red build. `chaos` drives
// closed-loop load while something else (scripts/vqed_chaos.sh) SIGKILLs
// and restarts the daemon, then gates on zero lost jobs, zero
// duplicates, and bit-equal energies versus local control runs of the
// same specs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/load"
	"repro/internal/runspec"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "chaos":
		err = cmdChaos(ctx, os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "vqeload: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqeload: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: vqeload <subcommand> [flags]

  run     generate load against a vqed and write a latency/SLO report
  chaos   drive load through daemon kills and gate on zero job loss
  sweep   submit or observe a sweep family and gate on its invariants
  report  render an existing load_report.json as a table or markdown

run 'vqeload <subcommand> -h' for flags.
`)
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vqeload run", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8931)")
	self := fs.Bool("self", false, "boot an in-process vqed instead of targeting -addr")
	selfJobs := fs.Int("self-jobs", 4, "worker count for the -self daemon")
	selfQueue := fs.Int("self-queue", 64, "queue depth for the -self daemon")
	selfNoCache := fs.Bool("self-nocache", false, "disable the -self daemon's result cache (measure cold-path latency)")
	mode := fs.String("mode", "closed", "closed (fixed concurrency) or open (arrival-driven)")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	arrival := fs.String("arrival", "poisson", "open-loop arrival process: poisson, mmpp, diurnal")
	rate := fs.Float64("rate", 10, "open-loop base arrival rate (jobs/s)")
	burst := fs.Float64("burst-rate", 0, "mmpp burst-state rate (default 4x -rate)")
	peak := fs.Float64("peak-rate", 0, "diurnal crest rate (default 3x -rate)")
	period := fs.Duration("period", 0, "diurnal cycle length (default 1m)")
	duration := fs.Duration("duration", 30*time.Second, "load generation window")
	mixName := fs.String("mix", runspec.MixSmoke, "spec mix: smoke, serving, sweep")
	seed := fs.Int64("seed", 1, "workload seed (spec sampling + arrival gaps)")
	slo := fs.Duration("slo", 5*time.Second, "per-job end-to-end latency objective")
	metricsEvery := fs.Duration("metrics-every", 5*time.Second, "/v1/metrics sampling cadence (0 disables)")
	reportPath := fs.String("report", "", "write the JSON report here")
	outcomes := fs.Bool("outcomes", false, "embed raw per-job outcomes in the report")
	failP99 := fs.Duration("fail-p99", 0, "exit non-zero if end-to-end p99 exceeds this (0 disables)")
	minSLO := fs.Float64("min-slo", 0, "exit non-zero if SLO attainment falls below this fraction (0 disables)")
	markdown := fs.Bool("md", false, "print the markdown summary (for $GITHUB_STEP_SUMMARY) after the table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mix, err := runspec.MixByName(*mixName)
	if err != nil {
		return err
	}
	cfg := load.Config{
		Mode:         *mode,
		Concurrency:  *concurrency,
		Duration:     *duration,
		Mix:          mix,
		Seed:         *seed,
		SLOTarget:    *slo,
		MetricsEvery: *metricsEvery,
		KeepOutcomes: *outcomes,
	}
	if *mode == "open" {
		arr, err := load.ArrivalByName(*arrival, *rate, *burst, *peak, *period)
		if err != nil {
			return err
		}
		cfg.Arrival = arr
	}

	switch {
	case *self:
		telemetry.Enable()
		base, stop, err := load.StartLocal(server.Config{
			MaxConcurrent: *selfJobs,
			QueueDepth:    *selfQueue,
			DisableCache:  *selfNoCache,
		})
		if err != nil {
			return err
		}
		defer func() { _ = stop() }()
		cfg.BaseURL = base
		fmt.Fprintf(os.Stderr, "vqeload: self-hosted vqed at %s (jobs=%d queue=%d)\n", base, *selfJobs, *selfQueue)
	case *addr != "":
		cfg.BaseURL = *addr
	default:
		return fmt.Errorf("run needs -addr or -self")
	}

	runner, err := load.NewRunner(cfg)
	if err != nil {
		return err
	}
	rep, err := runner.Run(ctx)
	if err != nil {
		return err
	}

	fmt.Print(rep.Table())
	if *markdown {
		fmt.Print(rep.MarkdownSummary())
	}
	if *reportPath != "" {
		if err := rep.WriteFile(*reportPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vqeload: report written to %s\n", *reportPath)
	}
	return rep.Gate(*failP99, *minSLO)
}

func cmdChaos(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vqeload chaos", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (the thing being killed and restarted)")
	mixName := fs.String("mix", runspec.MixSmoke, "spec mix: keep it small-molecule so control runs are bit-deterministic")
	duration := fs.Duration("duration", 30*time.Second, "load generation window")
	concurrency := fs.Int("concurrency", 3, "closed-loop worker count")
	seed := fs.Int64("seed", 1, "workload seed")
	settle := fs.Duration("settle-timeout", 3*time.Minute, "grace period after the window for surviving jobs to reach a terminal state")
	expectRestarts := fs.Int("expect-restarts", 0, "fail unless the health prober witnessed at least this many daemon restarts")
	verify := fs.Bool("verify", true, "recompute each completed spec in-process and require bit-equal energies")
	out := fs.String("out", "chaos_report.json", "write the JSON chaos report here (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("chaos needs -addr (it kills a real daemon; there is no -self)")
	}
	mix, err := runspec.MixByName(*mixName)
	if err != nil {
		return err
	}
	rep, err := load.RunChaos(ctx, load.ChaosConfig{
		BaseURL:       *addr,
		Mix:           mix,
		Duration:      *duration,
		Concurrency:   *concurrency,
		Seed:          *seed,
		SettleTimeout: *settle,
		Verify:        *verify,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vqeload: chaos report written to %s\n", *out)
	}
	return rep.Gate(*expectRestarts)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("vqeload report", flag.ExitOnError)
	in := fs.String("in", "load_report.json", "report to render")
	markdown := fs.Bool("md", false, "emit the markdown summary instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := load.ReadReport(*in)
	if err != nil {
		return err
	}
	if *markdown {
		fmt.Print(rep.MarkdownSummary())
	} else {
		fmt.Print(rep.Table())
	}
	return nil
}

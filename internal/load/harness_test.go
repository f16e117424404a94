package load

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func startDaemon(t *testing.T, cfg server.Config) string {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	base, stop, err := StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stop() })
	return base
}

func TestClosedLoopEndToEnd(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(func() { telemetry.Disable(); telemetry.Reset() })
	base := startDaemon(t, server.Config{MaxConcurrent: 2, SimWorkers: 2})

	mix, err := runspec.MixByName(runspec.MixSmoke)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		BaseURL:      base,
		Mode:         "closed",
		Concurrency:  3,
		Duration:     1500 * time.Millisecond,
		Mix:          mix,
		Seed:         7,
		SLOTarget:    30 * time.Second,
		PollInterval: 5 * time.Millisecond,
		MetricsEvery: 300 * time.Millisecond,
		KeepOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatalf("no jobs completed: %+v", rep)
	}
	if rep.Failed > 0 || rep.TimedOut > 0 {
		t.Fatalf("failures under smoke mix: %+v", rep)
	}
	if rep.E2E.Count != rep.Completed || rep.E2E.P99Ms < rep.E2E.P50Ms {
		t.Fatalf("e2e summary inconsistent: %+v", rep.E2E)
	}
	// The smoke mix repeats small classes, so the content-addressed cache
	// must land hits within 1.5s of traffic.
	if rep.CacheHitRate == 0 {
		t.Fatalf("no cache hits in a repeating mix: %+v", rep)
	}
	if rep.SLO.Attainment != 1 {
		t.Fatalf("SLO attainment %g under a 30s target", rep.SLO.Attainment)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no periodic metrics samples collected")
	}
	if rep.ServerMetrics == nil || rep.ServerMetrics.Counters["server.jobs.completed"] == 0 {
		t.Fatalf("final server metrics missing scheduler counters: %+v", rep.ServerMetrics)
	}
	if _, ok := rep.ServerMetrics.Rings["server.job.e2e_ms"]; !ok {
		t.Fatal("server latency ring missing from /v1/metrics")
	}
	if rep.Mode != "closed" || rep.Concurrency != 3 || rep.Mix != runspec.MixSmoke {
		t.Fatalf("report header wrong: %+v", rep)
	}
}

func TestOpenLoopRejectionsAndRetryAfter(t *testing.T) {
	// A one-worker, one-slot daemon under a fast Poisson stream must shed
	// load with 503s carrying a Retry-After quote.
	base := startDaemon(t, server.Config{MaxConcurrent: 1, QueueDepth: 1, SimWorkers: 1})

	// The overload has to hold by construction, not because the engine
	// happens to be slow: a sampled-mode job costs evaluations × groups ×
	// shots, so shots is the dial (≈300 ms per job here). Distinct shot
	// counts defeat the result cache so every class really runs once.
	const ratePerSec = 40
	slow := func(shots int) runspec.RunSpec {
		return runspec.RunSpec{
			Mode: "sampled", Shots: shots,
			Optimizer: runspec.OptimizerSpec{Method: "nelder-mead", MaxIter: 40},
		}
	}
	mix, err := runspec.NewMix("slowish", []runspec.MixEntry{
		{Name: "s1", Weight: 1, Spec: slow(20000)},
		{Name: "s2", Weight: 1, Spec: slow(20001)},
		{Name: "s3", Weight: 1, Spec: slow(20002)},
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := NewPoisson(ratePerSec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		BaseURL:      base,
		Mode:         "open",
		Arrival:      arr,
		Duration:     1200 * time.Millisecond,
		Mix:          mix,
		Seed:         3,
		SLOTarget:    30 * time.Second,
		PollInterval: 5 * time.Millisecond,
		KeepOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The premise: an uncached job holds the one worker for several
	// inter-arrival gaps, so the one queue slot cannot absorb the stream.
	var runMs []float64
	for _, o := range rep.Outcomes {
		if o.Status == "done" && !o.CacheHit {
			runMs = append(runMs, o.RunMs)
		}
	}
	sort.Float64s(runMs)
	const gapMs = 1000.0 / ratePerSec
	if len(runMs) == 0 || runMs[len(runMs)/2] < 3*gapMs {
		t.Fatalf("premise broken: uncached jobs ran %v ms, median must be ≥ %g ms (3 mean inter-arrival gaps at %d/s) "+
			"for a 1-worker, 1-slot daemon to be overloaded — the engine got faster; raise shots in slow()",
			runMs, 3*gapMs, ratePerSec)
	}
	if rep.Rejected == 0 {
		t.Fatalf("overloaded daemon shed nothing: %+v", rep)
	}
	if rep.Rate503 <= 0 {
		t.Fatalf("503 rate not reported: %+v", rep)
	}
	quoted := false
	for _, o := range rep.Outcomes {
		if o.Status == "rejected" && o.RetryAfterS >= 1 {
			quoted = true
			break
		}
	}
	if !quoted {
		t.Fatal("no rejection carried a Retry-After quote")
	}
}

func TestRunnerConfigValidation(t *testing.T) {
	mix, _ := runspec.MixByName(runspec.MixSmoke)
	bad := []Config{
		{Mode: "closed", Mix: mix, Duration: time.Second},                     // no BaseURL
		{BaseURL: "http://x", Mode: "closed", Duration: time.Second},          // no mix
		{BaseURL: "http://x", Mode: "closed", Mix: mix},                       // no duration
		{BaseURL: "http://x", Mode: "open", Mix: mix, Duration: time.Second},  // open without arrival
		{BaseURL: "http://x", Mode: "weird", Mix: mix, Duration: time.Second}, // bad mode
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

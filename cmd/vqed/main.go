// Command vqed is the VQE job-serving daemon: it accepts RunSpec
// documents over HTTP, schedules them on a bounded worker fleet sharing
// one simulation pool, streams per-iteration progress over SSE, and
// answers repeated specs from a content-addressed result cache.
//
//	vqed -addr :8080 -jobs 4 -workers 0 -spool /tmp/vqed-spool
//
// Passing `-addr 127.0.0.1:0` binds an OS-assigned free port; the chosen
// address is printed on the "serving on" log line so scripts (and
// vqeload) can discover it without racing other processes for a port.
//
// A queue-full 503 quotes Retry-After as the backlog divided across the
// fleet, priced by an EWMA of observed run times.
//
// The daemon is crash-safe: every accepted job is recorded in a
// write-ahead journal (journal.wal in the spool) before the client sees
// its 202, and startup replays the journal — re-enqueueing jobs a crash
// interrupted, resuming them from their latest resilience checkpoint.
// SIGINT/SIGTERM trigger a graceful drain: in-flight optimizers halt at
// the next iteration boundary and checkpoint into the spool; SIGKILL
// loses nothing but the iterations since the last checkpoint.
//
// Workers are fault-isolated: a panicking or stalled job (no progress
// within -stall-timeout) is recovered, requeued, and retried up to
// -retries times with jittered backoff before being declared failed.
// The VQED_FAULTS environment variable ("seed=1,panic=0.05,stall=0.02,
// stall_ms=400,max=8") injects worker panics and stalls for chaos
// drills — see scripts/vqed_chaos.sh.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (port 0 picks a free port, logged at startup)")
	jobs := flag.Int("jobs", 4, "maximum concurrently running jobs")
	queue := flag.Int("queue", 64, "queued-job capacity before submissions get 503")
	workers := flag.Int("workers", 0, "shared simulation pool width (0 = GOMAXPROCS)")
	spool := flag.String("spool", "", "checkpoint spool directory (default: vqed-spool under the OS temp dir)")
	cache := flag.Int("cache", 256, "result cache capacity (completed specs)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	metrics := flag.Bool("metrics", true, "record scheduler telemetry for /v1/metrics")
	retries := flag.Int("retries", 2, "retry budget for panicked/stalled jobs before they fail")
	stall := flag.Duration("stall-timeout", 2*time.Minute, "no-progress deadline before the watchdog kills a running job (0 disables)")
	sweepPoints := flag.Int("sweep-points", 256, "maximum points one sweep family may expand to")
	flag.Parse()

	if *metrics {
		telemetry.Enable()
	}

	cfg := server.Config{
		MaxConcurrent:  *jobs,
		QueueDepth:     *queue,
		SimWorkers:     *workers,
		SpoolDir:       *spool,
		CacheCapacity:  *cache,
		RetryBudget:    *retries,
		StallTimeout:   *stall,
		MaxSweepPoints: *sweepPoints,
		Logf:           log.Printf,
	}
	if spec := os.Getenv("VQED_FAULTS"); spec != "" {
		hook, err := server.FaultHookFromEnv(spec)
		if err != nil {
			log.Fatalf("vqed: VQED_FAULTS: %v", err)
		}
		cfg.FaultHook = hook
		log.Printf("vqed: fault injection armed (VQED_FAULTS=%s)", spec)
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("vqed: %v", err)
	}

	// Listen explicitly (rather than ListenAndServe) so `-addr :0` works:
	// the kernel-assigned port is known before the first request and goes
	// on the startup log line that scripts parse.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vqed: listen: %v", err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("vqed: serving on %s (jobs=%d queue=%d workers=%d)",
			ln.Addr(), *jobs, *queue, srv.Pool().Workers())
		errCh <- httpSrv.Serve(ln)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("vqed: %s received, draining (budget %s)", s, *drain)
	case err := <-errCh:
		log.Fatalf("vqed: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the scheduler first: jobs settle (checkpointing in-flight
	// work), which ends their SSE streams, so the HTTP shutdown that
	// follows isn't held open by live event connections.
	drainErr := srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vqed: http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("vqed: drain: %v", drainErr)
		os.Exit(1)
	}
	fmt.Println("vqed: drained cleanly")
}

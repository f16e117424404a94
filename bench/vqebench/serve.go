package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"repro/bench/probe"
)

// serveClients is the closed-loop concurrency of both serving workloads:
// vqed's callers are scripts that wait for an energy before they submit
// the next spec, and two of them keep both cores of the 2-core sizing busy.
const serveClients = 2

// served is what the two serving workloads share: the daemon, its
// clients, and the accounting a traced window needs from outside the
// daemon (its /v1/metrics, its CPU time, a restart on the used spool).
type served struct {
	cfg     config
	start   func(ctx context.Context, spool string) (*daemon, error)
	d       *daemon
	spool   string
	clients []*client
	bootsMs []float64

	// Deltas over the traced window.
	m0, m1             metricsSnapshot
	daemonCPU, selfCPU float64
	gcPauseMs          float64
	tracedWall         time.Duration
}

func newServed(c config) served {
	s := served{cfg: c}
	s.start = func(ctx context.Context, spool string) (*daemon, error) {
		return startDaemon(ctx, c.vqed, spool)
	}
	return s
}

func (s *served) boot(ctx context.Context) error {
	spool, err := os.MkdirTemp(s.cfg.tmp, "spool-")
	if err != nil {
		return err
	}
	s.spool = spool
	s.d, err = s.start(ctx, spool)
	if err != nil {
		return err
	}
	s.bootsMs = append(s.bootsMs, s.d.bootMs)
	s.clients = nil
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, newClient(s.d.base))
	}
	return nil
}

func (s *served) tearDown() {
	for _, c := range s.clients {
		c.close()
	}
	s.d.stop()
	s.d = nil
	_ = os.RemoveAll(s.spool)
}

func (s *served) workPID() int { return s.d.pid() }

// account brackets a traced window with the daemon's metrics and both
// processes' CPU clocks; an untraced window just runs.
func (s *served) account(ctx context.Context, rec *recorder, fn func() window) window {
	if rec == nil {
		return fn()
	}
	s.m0, _ = s.clients[0].metrics(ctx)
	d0, c0 := procCPUSeconds(s.d.pid()), procCPUSeconds(os.Getpid())
	gc0 := gcPauseTotalMs()
	w := fn()
	s.gcPauseMs = gcPauseTotalMs() - gc0
	s.daemonCPU = procCPUSeconds(s.d.pid()) - d0
	s.selfCPU = procCPUSeconds(os.Getpid()) - c0
	s.m1, _ = s.clients[0].metrics(ctx)
	s.tracedWall = w.wall
	return w
}

func (s *served) counterDelta(name string) float64 {
	return float64(s.m1.Counters[name] - s.m0.Counters[name])
}

func (s *served) timerDeltaMs(name string) float64 {
	return float64(s.m1.Timers[name].TotalNs-s.m0.Timers[name].TotalNs) / 1e6
}

// serverSpans records the daemon-side story of one operation under its
// client span, from the view's own timestamps: queue wait, run, and the
// time the terminal frame took to reach the client.
func serverSpans(rec *recorder, parent, op int, submitted time.Time, started, finished *time.Time, terminal time.Time) {
	if rec == nil || started == nil || finished == nil {
		return
	}
	rec.add("server.queue_wait", parent, op, submitted, *started)
	rec.add("server.run", parent, op, *started, *finished)
	rec.add("server.notify", parent, op, *finished, terminal)
}

// progressGaps records one vqe.iteration span per gap between progress
// frames, as the client saw them arrive.
func progressGaps(rec *recorder, parent, op int, frames []frame) {
	var prev time.Time
	for _, f := range frames {
		if f.Type != "progress" {
			continue
		}
		if !prev.IsZero() {
			rec.add("vqe.iteration", parent, op, prev, f.At)
		}
		prev = f.At
	}
}

// layersCommon computes the per-layer metrics both serving workloads
// share, from the traced window's spans and the window's deltas. opName is
// the client span of one operation and ops the number completed.
func (s *served) layersCommon(ctx context.Context, spans []span, opName string, ops float64) (probe.Metrics, error) {
	lat := durationsMs(spans, opName)
	submit := durationsMs(spans, "server.submit")
	wait := durationsMs(spans, "server.queue_wait")
	run := durationsMs(spans, "server.run")
	// Client latency of the operations the daemon actually ran (cache
	// hits have no run span): what the run time is a share of.
	ranLat := 0.0
	ran := map[int]bool{}
	for _, sp := range spans {
		if sp.Name == "server.run" {
			ran[sp.Op] = true
		}
	}
	for _, sp := range spans {
		if sp.Name == opName && ran[sp.Op] {
			ranLat += float64(sp.duration()) / 1e6
		}
	}
	m := probe.Metrics{
		"server.boot_ms":           probe.Median(s.bootsMs),
		"server.submit_p50_ms":     probe.Median(submit),
		"server.submit_p95_ms":     probe.Percentile(submit, 95),
		"server.queue_wait_p50_ms": probe.Median(wait),
		"server.queue_wait_p95_ms": probe.Percentile(wait, 95),
		"server.run_p50_ms":        probe.Median(run),
		"server.run_p95_ms":        probe.Percentile(run, 95),
		"server.notify_p50_ms":     probe.Median(durationsMs(spans, "server.notify")),
		"server.overhead_share":    1 - probe.Ratio(sum(run), ranLat),
		"server.job_p95_ms":        probe.Percentile(lat, 95),
		"server.job_p99_ms":        probe.Percentile(lat, 99),
		"server.rejected":          s.counterDelta("server.jobs.rejected") + s.counterDelta("server.sweeps.rejected"),
		"server.retried":           s.counterDelta("server.jobs.retried"),
		"server.cpu_ms_per_job":    probe.Ratio(s.daemonCPU*1e3, ops),
		"journal.bytes_per_job":    probe.Ratio(s.counterDelta("journal.bytes"), ops),
		"telemetry.prepare_share":  probe.Ratio(s.timerDeltaMs("vqe.phase.prepare"), sum(run)),
		"telemetry.expect_share":   probe.Ratio(s.timerDeltaMs("vqe.phase.expect"), sum(run)),
		"telemetry.gradient_share": probe.Ratio(s.timerDeltaMs("vqe.phase.gradient"), sum(run)),
		"process.cpu_s":            s.daemonCPU,
		"process.client_cpu_share": probe.Ratio(s.selfCPU, s.tracedWall.Seconds()),
		"process.gc_pause_ms":      s.gcPauseMs,
		"vqe.iteration_p50_ms":     probe.Median(durationsMs(spans, "vqe.iteration")),
	}
	if ranLat == 0 {
		m["server.overhead_share"] = 0
	}

	// Restart on the spool the workload used: the journal is read beside
	// its writes, so a faster append format that slows replay shows here.
	for _, c := range s.clients {
		c.close()
	}
	s.d.stop()
	rm, err := probe.Replay(s.cfg.probe, filepath.Join(s.spool, "journal.wal"))
	if err != nil {
		return nil, err
	}
	m["journal.replay_ms"] = rm["journal.replay_ms"]
	s.d, err = s.start(ctx, s.spool)
	if err != nil {
		return nil, err
	}
	m["server.restart_ready_ms"] = s.d.bootMs
	return m, nil
}

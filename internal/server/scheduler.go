package server

// The bounded scheduler: a fixed worker fleet drains the queue of admitted
// families, every worker running points through the shared runspec engine
// on one common state.Pool. A family occupies its worker for all of its
// points, so they share one build cache and warm-start chain. Admission
// control is an explicit backlog counter — a full queue rejects at submit
// time (HTTP 503) instead of buffering unboundedly — and the concurrency
// bound is the worker count, so a burst of heavy work degrades to latency,
// never to memory exhaustion.
//
// Fault isolation happens per point: a panicking evaluation is recovered
// in its worker, a wedged one is cancelled by the no-progress watchdog,
// and both are re-run on a bounded retry budget with the default
// resilience.RetryPolicy backoff before the point settles terminally; a
// family continues past a failed point. Every transition is journaled
// first, so the lifecycle survives a daemon crash at any point.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/runspec"
	"repro/internal/server/journal"
	"repro/internal/telemetry"
)

// Scheduler instruments, in the process-wide scope so /v1/metrics and
// run reports surface them alongside the engine's own counters. The
// per-view admission and outcome counters are in countersOf.
var (
	mJobsInterrupted   = telemetry.GetCounter("server.jobs.interrupted")
	mJobsRetried       = telemetry.GetCounter("server.jobs.retried")
	mJobsPanicked      = telemetry.GetCounter("server.jobs.panics_recovered")
	mWatchdogStalls    = telemetry.GetCounter("server.watchdog.stalls")
	mCacheHits         = telemetry.GetCounter("server.cache.hits")
	mSweepPointsRun    = telemetry.GetCounter("server.sweeps.points_run")
	mSweepPointsCached = telemetry.GetCounter("server.sweeps.points_cached")
	mSweepWarmStarts   = telemetry.GetCounter("server.sweeps.warm_starts")
	mQueueDepth        = telemetry.GetGauge("server.queue.depth")
	mJobsRunning       = telemetry.GetGauge("server.jobs.running")
	mJobRun            = telemetry.GetTimer("server.job.run")

	// Latency rings feed the load harness: recent per-family queue wait,
	// execution time, and end-to-end latency in milliseconds, exported
	// with percentiles through /v1/metrics.
	mQueueWaitMs = telemetry.GetRing("server.job.queue_wait_ms", 512)
	mRunMs       = telemetry.GetRing("server.job.run_ms", 512)
	mE2EMs       = telemetry.GetRing("server.job.e2e_ms", 512)
)

// ErrQueueFull is returned by Submit and SubmitSweep when admission
// control rejects a submission; the HTTP layer maps it to 503 +
// Retry-After.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown is returned by Submit and SubmitSweep after Shutdown
// has begun.
var ErrShuttingDown = errors.New("server: shutting down")

// errSweepTooLarge marks a family exceeding the daemon's point cap; the
// HTTP layer maps it to 400 invalid_argument.
var errSweepTooLarge = errors.New("server: sweep too large")

// errJobPanicked marks an engine panic recovered by the worker; it
// classifies as retryable.
var errJobPanicked = errors.New("server: worker recovered a panic")

// errStalled is the cancellation cause the watchdog attaches when a point
// exceeds the no-progress deadline.
var errStalled = errors.New("server: no engine progress within stall timeout")

// errCancelled is the cancellation cause a client DELETE attaches to a
// running family.
var errCancelled = errors.New("server: sweep cancelled by client")

// Submit admits one spec as a solo family.
func (s *Server) Submit(spec *runspec.RunSpec) (*family, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return s.admit(nil, soloPoints(spec))
}

// SubmitSweep expands a sweep document and admits it as one family.
func (s *Server) SubmitSweep(ss *runspec.SweepSpec) (*family, error) {
	points, err := ss.Points()
	if err != nil {
		return nil, err
	}
	if len(points) > s.cfg.MaxSweepPoints {
		return nil, fmt.Errorf("%w: sweep expands to %d points (server cap %d)",
			errSweepTooLarge, len(points), s.cfg.MaxSweepPoints)
	}
	return s.admit(ss, points)
}

// admit deduplicates, journals, and enqueues a family, returning its
// record once the accepted record is durable. Points whose rs1 hash
// already sits in the result cache are settled at admission; a family
// whose every point is cached — a resubmitted job, say — settles
// terminally without ever occupying a worker.
func (s *Server) admit(sweep *runspec.SweepSpec, points []runspec.SweepPoint) (*family, error) {
	f := newFamily("", sweep, points)
	counters := countersOf[f.kind()]
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	// Past the draining gate: Shutdown waits for this admission before it
	// closes the journal, or the 202 below could acknowledge a family whose
	// accepted record was never written.
	s.wg.Add(1)
	defer s.wg.Done()
	// Only the uncached remainder competes for a backlog slot.
	cached := make([]*runspec.Result, len(points))
	uncached := 0
	for i, p := range points {
		if !s.cfg.DisableCache {
			cached[i] = s.cache[p.Hash]
		}
		if cached[i] == nil {
			uncached++
		}
		f.points[i].cacheHit = cached[i] != nil
	}
	if uncached > 0 && s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		counters.rejected.Inc()
		return nil, ErrQueueFull
	}
	if uncached > 0 {
		// Reserve the backlog slot under the same lock as the admission
		// check; the enqueue itself happens after the journal write, and
		// the channel's slack guarantees it cannot block.
		s.queued++
	}
	s.seq[f.kind()]++
	f.ID = fmt.Sprintf("%s-%06d", f.kind(), s.seq[f.kind()])
	s.register(f)
	s.mu.Unlock()
	counters.submitted.Inc()

	// Durability before acknowledgement: the accepted record (with the
	// full submitted document) plus one record per admission-time cache
	// hit must be on disk before the client hears 202, so a crash after
	// this point can never lose the family. A cache hit still exists as a
	// first-class record so clients can poll it uniformly — and it is
	// journaled, so it still answers after a restart.
	s.journalAppend(journal.Record{Op: journal.OpAccepted, JobID: f.ID,
		SpecHash: f.hash, Spec: f.document()})
	f.publish(Event{Type: string(StatusQueued)})
	for i, res := range cached {
		if res != nil {
			s.settlePoint(f, f.points[i], StatusDone, res, "")
		}
	}
	if uncached == 0 {
		s.settleFamily(f)
		return f, nil
	}
	select {
	case s.queue <- f:
	case <-s.runCtx.Done():
		// Shutdown raced the enqueue; the accepted record re-enqueues the
		// family on the next start.
	}
	mQueueDepth.Set(int64(len(s.queue)))
	return f, nil
}

// cancelFamily requests family cancellation: a queued family settles
// immediately, a running one is cancelled at the next point boundary (the
// in-flight point's context is cancelled with errCancelled). Cancelling a
// terminal family is an idempotent no-op. Only sweeps are cancellable on
// the wire.
func (s *Server) cancelFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() {
		f.mu.Unlock()
		return
	}
	f.cancelled = true
	queued := f.status == StatusQueued
	cancel := f.cancelCause
	f.mu.Unlock()
	if cancel != nil {
		cancel(errCancelled)
	}
	if queued {
		// Not yet picked up: settle now; the worker's entry guard skips
		// the stale queue item.
		s.settleFamily(f)
	}
}

// observeRunTime folds one measured execution time into the EWMA
// (α = 1/8) the admission controller prices its wait quote by.
func (s *Server) observeRunTime(d time.Duration) {
	for {
		old := s.avgRunNs.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if s.avgRunNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// EstimateWait quotes how long a newly arriving submission would wait
// before a worker picks it up: the queue backlog divided across the
// fleet, priced per queue item by the measured EWMA of recent
// executions, or a nominal second before anything has run. The admission
// controller sends this as Retry-After on 503 rejections so clients back
// off proportionally to actual load instead of thundering back on a
// fixed timer.
func (s *Server) EstimateWait() time.Duration {
	svc := time.Duration(s.avgRunNs.Load())
	if svc <= 0 {
		svc = time.Second
	}
	backlog := len(s.queue) + 1
	waves := (backlog + s.cfg.MaxConcurrent - 1) / s.cfg.MaxConcurrent
	return time.Duration(waves) * svc
}

// worker is one scheduler slot: it drains the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case f, ok := <-s.queue:
			if !ok {
				return
			}
			s.mu.Lock()
			if s.queued > 0 {
				s.queued--
			}
			s.mu.Unlock()
			mQueueDepth.Set(int64(len(s.queue)))
			s.runFamily(f)
		}
	}
}

// watchdog cancels running points whose engine heartbeats have gone
// silent for longer than StallTimeout; the point then classifies as a
// retryable stall and re-runs (or degrades to best-so-far on budget
// exhaustion).
func (s *Server) watchdog() {
	defer s.wg.Done()
	interval := s.cfg.StallTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			s.mu.Lock()
			for id, e := range s.watch {
				if now-e.beat.Load() > int64(s.cfg.StallTimeout) {
					mWatchdogStalls.Inc()
					e.cancel(errStalled)
					// Cancel exactly once; the worker unregisters on return.
					delete(s.watch, id)
				}
			}
			s.mu.Unlock()
		}
	}
}

func (s *Server) watchAdd(id string, beat *atomic.Int64, cancel context.CancelCauseFunc) {
	s.mu.Lock()
	s.watch[id] = &watchEntry{beat: beat, cancel: cancel}
	s.mu.Unlock()
}

func (s *Server) watchRemove(id string) {
	s.mu.Lock()
	delete(s.watch, id)
	s.mu.Unlock()
}

// runFamily executes one family in the current worker slot: points in
// ascending axis order, warm-started from the nearest finished neighbor,
// sharing one Hamiltonian build cache. Point failures are isolated — the
// family continues — and every settled point is journaled individually,
// so a crash loses at most the in-flight point.
func (s *Server) runFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() || f.cancelled {
		terminal := f.status.Terminal()
		f.mu.Unlock()
		if !terminal {
			s.settleFamily(f)
		}
		return
	}
	f.status = StatusRunning
	if f.started.IsZero() {
		f.started = time.Now()
	}
	// Installed under the lock that checked f.cancelled, so a DELETE
	// either settled the family above or finds the cancel func.
	famCtx, famCancel := context.WithCancelCause(s.runCtx)
	f.cancelCause = famCancel
	f.mu.Unlock()
	defer func() {
		famCancel(nil)
		// The closure pins the context tree; a family no worker owns has
		// nothing to cancel (cancelFamily checks for nil).
		f.mu.Lock()
		f.cancelCause = nil
		f.mu.Unlock()
	}()

	start := telemetry.Now()
	mJobsRunning.Set(s.running.Add(1))
	defer func() {
		mJobsRunning.Set(s.running.Add(-1))
		mJobRun.Since(start)
	}()
	f.publish(Event{Type: string(StatusRunning)})

	// Shared Hamiltonian/FCI construction (across points, and across the
	// retry attempts of one) plus the warm-start pool of finished
	// neighbors, seeded by the points already settled.
	shared := runspec.NewBuildCache()
	var finished []runspec.SweepPoint
	results := map[int]*runspec.Result{}
	f.mu.Lock()
	for _, p := range f.points {
		if p.status == StatusDone && p.result != nil {
			finished = append(finished, p.pt)
			results[p.pt.Index] = p.result
		}
	}
	f.mu.Unlock()

	for _, idx := range f.order {
		p := f.points[idx]
		f.mu.Lock()
		settled, cancelled := p.status.Terminal(), f.cancelled
		f.mu.Unlock()
		if cancelled {
			break
		}
		if settled {
			continue
		}
		// Re-check the result cache: another submission of this exact
		// point may have completed while the family waited in the queue.
		res := s.cachedResult(p.pt.Hash)
		if res != nil {
			f.mu.Lock()
			p.cacheHit = true
			f.mu.Unlock()
			s.settlePoint(f, p, StatusDone, res, "")
		} else {
			res = s.runPoint(famCtx, f, p, shared,
				runspec.NearestParams(p.pt.Value, 0, finished, results))
		}
		if s.runCtx.Err() != nil {
			// Drain: whatever the in-flight point could save is journaled;
			// park the family non-terminal.
			s.parkFamily(f)
			return
		}
		if res != nil {
			finished = append(finished, p.pt)
			results[idx] = res
		}
	}
	s.settleFamily(f)
}

// checkpointPath is the spool file a point snapshots into.
func (s *Server) checkpointPath(f *family, p *point) string {
	name := f.ID
	if n := f.pointNo(p); n > 0 {
		name = fmt.Sprintf("%s-p%03d", f.ID, n)
	}
	return filepath.Join(s.cfg.SpoolDir, name+".ckpt")
}

// resumable reports whether the snapshot at path verifies (CRC +
// version). A torn or mismatched one is deleted, so the next run
// cold-starts instead of failing on load.
func (s *Server) resumable(path string) bool {
	_, err := resilience.CheckpointKind(path)
	if err != nil && !os.IsNotExist(err) {
		s.logf("vqed: checkpoint %s invalid, cold restart: %v", path, err)
		os.Remove(path)
	}
	return err == nil
}

// runPoint executes one point — including its retry attempts — and
// settles it, returning the result when the point finished done (it then
// joins the warm-start pool). On daemon shutdown it journals the point's
// checkpoint record and returns without settling; the caller parks the
// family.
func (s *Server) runPoint(famCtx context.Context, f *family, p *point, shared *runspec.BuildCache, warm []float64) *runspec.Result {
	for {
		checkpoint := ""
		if s.spoolOK.Load() {
			checkpoint = s.checkpointPath(f, p)
		}
		f.mu.Lock()
		p.status = StatusRunning
		p.checkpoint = checkpoint
		p.warmStart = len(warm) > 0 && !p.resume
		resume := p.resume
		requeued := f.status != StatusRunning
		f.status = StatusRunning
		f.mu.Unlock()
		f.beat()
		if requeued {
			f.publish(Event{Type: string(StatusRunning)})
		}

		ctx, cancel := context.WithCancelCause(famCtx)
		s.watchAdd(f.ID, &f.lastBeat, cancel)
		res, err := s.execute(ctx, f, p, shared, warm, checkpoint, resume)
		s.watchRemove(f.ID)
		stalled := errors.Is(context.Cause(ctx), errStalled)
		cancelled := errors.Is(context.Cause(famCtx), errCancelled)
		cancel(nil)

		// fault, when set, is a retryable failure's reason.
		var fault string
		switch {
		case s.runCtx.Err() != nil:
			// Drain: keep the best-so-far result for clients still polling
			// this process, and journal the resumable checkpoint
			// (non-terminal) so the restarted daemon re-runs only this
			// point onward.
			f.mu.Lock()
			if res != nil {
				p.result = res
			}
			f.mu.Unlock()
			rec := journal.Record{Op: journal.OpCheckpointed, JobID: f.ID,
				Point: f.pointNo(p), SpecHash: p.pt.Hash}
			if fileExists(checkpoint) {
				rec.Checkpoint = checkpoint
			}
			s.journalAppend(rec)
			return nil

		case cancelled:
			f.mu.Lock()
			p.status, p.err = StatusCancelled, errCancelled.Error()
			f.mu.Unlock()
			return nil

		case stalled:
			fault = fmt.Sprintf("stall: %v", errStalled)

		case err != nil && errors.Is(err, resilience.ErrCheckpointWrite):
			// The spool is broken, not the point: shed checkpointing and
			// retry the attempt without durability.
			s.degradeSpool(fmt.Sprintf("checkpoint write failed: %v", err))
			res, checkpoint, fault = nil, "", err.Error()

		case err != nil && (errors.Is(err, errJobPanicked) || retryableEngineErr(err)):
			fault = err.Error()

		case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
			// Spec-level walltime expired before the optimizer could capture
			// a best-so-far point (e.g. QPE, or pre-loop).
			s.settleHalted(f, p, nil, err.Error())
			return nil

		case err != nil:
			s.settlePoint(f, p, StatusFailed, nil, err.Error())
			return nil

		case res.Interrupted:
			// Graceful walltime halt: best-so-far result plus a resumable
			// checkpoint.
			s.settleHalted(f, p, res, "")
			return nil

		default:
			s.settlePoint(f, p, StatusDone, res, "")
			return res
		}
		if !s.retry(f, p, res, checkpoint, fault) {
			return nil
		}
	}
}

// execute runs one engine attempt with per-point panic isolation,
// warm-started from warm unless resuming a checkpoint. The engine's
// progress observer feeds the watchdog heartbeat, the chaos fault hook,
// and the SSE stream, in that order.
func (s *Server) execute(ctx context.Context, f *family, p *point, shared *runspec.BuildCache, warm []float64, checkpoint string, resume bool) (res *runspec.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			mJobsPanicked.Inc()
			err = fmt.Errorf("%w: %v", errJobPanicked, r)
		}
	}()
	spec := p.pt.Spec
	if resume && checkpoint != "" {
		sp := *spec
		sp.Resilience.CheckpointPath = checkpoint
		sp.Resilience.Resume = true
		spec = &sp
	}
	hook := s.cfg.FaultHook
	return runspec.Run(ctx, spec, runspec.RunOptions{
		Pool:           s.pool,
		CheckpointPath: checkpoint,
		InitialParams:  warm,
		Shared:         shared,
		OnProgress: func(pr runspec.Progress) {
			f.beat()
			if hook != nil {
				hook(ctx, f.ID, pr)
			}
			f.pointEvent(p, Event{Type: "progress", Phase: pr.Phase,
				Iteration: pr.Iteration, Energy: pr.Energy, Operator: pr.Operator})
		},
	})
}

// retryableEngineErr classifies transient engine failures worth a
// re-run: exhausted comm retries, detected corruption, dropped
// transfers. Spec errors (invalid argument) are always terminal.
func retryableEngineErr(err error) bool {
	if errors.Is(err, core.ErrInvalidArgument) {
		return false
	}
	return errors.Is(err, resilience.ErrRetriesExhausted) ||
		errors.Is(err, resilience.ErrCorrupted) ||
		errors.Is(err, resilience.ErrDropped)
}

// retry spends one unit of a retryably-failed point's budget: with budget
// left it arms a checkpoint resume when the snapshot verifies, journals
// the retrying record so the spent budget survives a restart, backs off,
// and reports true — the caller re-attempts. It reports false once the
// point is settled (budget exhausted) or the daemon began draining.
func (s *Server) retry(f *family, p *point, res *runspec.Result, checkpoint, reason string) bool {
	f.mu.Lock()
	p.attempt++
	attempt := p.attempt
	f.mu.Unlock()

	if attempt > s.cfg.RetryBudget {
		msg := fmt.Sprintf("retry budget exhausted after %d attempt(s): %s", attempt, reason)
		if res != nil {
			// The optimizer captured a usable partial answer before the
			// attempt was cancelled.
			s.settleHalted(f, p, res, msg)
		} else {
			s.settlePoint(f, p, StatusFailed, nil, msg)
		}
		return false
	}

	resume := checkpoint != "" && s.resumable(checkpoint)
	f.mu.Lock()
	p.status = StatusQueued
	p.resume = resume
	// A job shows "queued" while it backs off. An axis family stays
	// "running" — it still owns its worker, and cancelFamily treats a queued
	// family as one no worker has picked up.
	requeue := f.solo()
	if requeue {
		f.status = StatusQueued
	}
	f.mu.Unlock()

	s.journalAppend(journal.Record{Op: journal.OpRetrying, JobID: f.ID, Point: f.pointNo(p),
		Attempt: attempt, Error: reason, Checkpoint: checkpoint})
	mJobsRetried.Inc()
	s.logf("vqed: %s point %d attempt %d failed retryably (%s), re-running",
		f.ID, p.pt.Index+1, attempt, reason)
	f.pointEvent(p, Event{Type: EventRetrying, Error: reason})
	if requeue {
		f.publish(Event{Type: string(StatusQueued)})
	}

	t := time.NewTimer(resilience.RetryPolicy{}.Delay(attempt + 1))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.runCtx.Done():
		// Shutdown during backoff: the journal already holds the retrying
		// record (non-terminal), so the next start re-runs the point.
		return false
	}
}

// settleHalted settles a point that stopped short of convergence with
// nothing left to retry — a walltime halt, or a spent retry budget that
// left a best-so-far result. This is the one place the two views differ
// in outcome: a job keeps the partial result and its checkpoint and
// settles interrupted (degraded completion); a point on a curve settles
// failed, because a partial optimum must not feed the result cache or
// the warm-start chain.
func (s *Server) settleHalted(f *family, p *point, res *runspec.Result, reason string) {
	if f.solo() {
		s.settlePoint(f, p, StatusInterrupted, res, reason)
		return
	}
	if reason == "" {
		reason = "interrupted before convergence"
	}
	s.settlePoint(f, p, StatusFailed, nil, reason)
}

// settlePoint records a point's terminal outcome: journal first, then —
// for a done point — the spec-hash cache (any later submission of this
// spec now hits) and the spool (its checkpoint has nothing left to
// resume), then the point-completion frame. A solo family publishes no
// point frame: settleFamily follows with the one terminal frame.
func (s *Server) settlePoint(f *family, p *point, status Status, res *runspec.Result, errMsg string) {
	f.mu.Lock()
	p.status, p.err = status, errMsg
	if res != nil {
		p.result = res
	}
	hit, warm, checkpoint := p.cacheHit, p.warmStart, p.checkpoint
	if status == StatusDone {
		p.checkpoint = ""
	}
	f.mu.Unlock()

	rec := journal.Record{Op: journal.Op(status), JobID: f.ID, Point: f.pointNo(p),
		SpecHash: p.pt.Hash, Result: journalResult(res), Error: errMsg}
	if status != StatusDone && fileExists(checkpoint) {
		rec.Checkpoint = checkpoint
	}
	s.journalAppend(rec)
	if status == StatusDone {
		s.cacheStore(p.pt.Hash, res)
		if checkpoint != "" {
			os.Remove(checkpoint)
		}
	}
	if hit {
		mCacheHits.Inc()
	}
	if f.solo() {
		return
	}
	e := Event{Type: EventPointFailed, Error: errMsg}
	if status == StatusDone {
		e = Event{Type: EventPointDone, Energy: res.Energy}
		if hit {
			mSweepPointsCached.Inc()
		} else {
			mSweepPointsRun.Inc()
			if warm {
				mSweepWarmStarts.Inc()
			}
		}
	}
	f.pointEvent(p, e)
}

// parkFamily marks a drain-interrupted family in memory without a
// terminal journal record: the accepted record is still live, so the next
// start re-enqueues the family and only unfinished points re-run.
func (s *Server) parkFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() {
		f.mu.Unlock()
		return
	}
	f.status = StatusInterrupted
	f.finished = time.Now()
	f.mu.Unlock()
	mJobsInterrupted.Inc()
	f.publish(Event{Type: string(StatusInterrupted)})
}

// settleFamily records the family's terminal outcome from its points'
// states (see outcome): journal, metrics, the terminal frame. Idempotent —
// the first settle wins.
func (s *Server) settleFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() {
		f.mu.Unlock()
		return
	}
	if f.cancelled {
		for _, p := range f.points {
			if !p.status.Terminal() {
				p.status = StatusCancelled
			}
		}
	}
	status, errMsg := f.outcome()
	f.status, f.err, f.finished = status, errMsg, time.Now()
	// A family settled at admission was never a queue item: it has an
	// end-to-end latency but no queue wait or run time to sample.
	ran := !f.started.IsZero()
	if !ran {
		f.started = f.finished
	}
	queueWait := f.started.Sub(f.submitted)
	runTime := f.finished.Sub(f.started)
	e2e := f.finished.Sub(f.submitted)
	f.mu.Unlock()

	if ran {
		mQueueWaitMs.Observe(float64(queueWait) / float64(time.Millisecond))
		mRunMs.Observe(float64(runTime) / float64(time.Millisecond))
		s.observeRunTime(runTime)
	}
	mE2EMs.Observe(float64(e2e) / float64(time.Millisecond))
	if !f.solo() {
		// A solo family's point record is already its terminal record.
		s.journalAppend(journal.Record{Op: journal.Op(status), JobID: f.ID,
			SpecHash: f.hash, Error: errMsg})
	}
	countersOf[f.kind()].settled[status].Inc()
	f.publish(Event{Type: string(status), Error: errMsg})
	s.compactIfNeeded(false)
}

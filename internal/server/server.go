// Package server implements the vqed job-serving daemon: VQE workloads
// submitted over HTTP as canonical runspec documents — one RunSpec (a
// job) or a SweepSpec (a family of them along an axis) — executed on a
// bounded worker scheduler that shares one simulation pool, with
// per-iteration progress streamed over SSE and results cached by spec
// content hash. There is one lifecycle: a submission is a family of
// points, a job being the family of one point and no axis (family.go), and
// admission, execution, retry, settlement, journaling and replay are each
// one code path that /v1/jobs and /v1/sweeps are two views over.
//
// The lifecycle is durable: every accepted family is journaled to a
// write-ahead log before it is acknowledged, so a crash — SIGKILL
// included — loses nothing. On restart the journal replays: settled
// points and finished families keep answering polls, unfinished ones
// re-enqueue and resume from their latest resilience checkpoint. Workers
// isolate panics, retry transient failures on a bounded budget, and a
// watchdog cancels evaluations that stop producing progress heartbeats.
// When the journal or checkpoint spool becomes unwritable the daemon sheds
// durability and keeps serving (/healthz reports "degraded").
//
// Lock order: Server.mu before family.mu, never the reverse (code that
// needs both copies what it needs out from under Server.mu first). A
// family's event-hub lock is independent of both and is never held across
// a call out.
//
// Endpoints:
//
//	POST   /v1/jobs              submit a RunSpec, returns the job record
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job detail (result embedded when finished)
//	GET    /v1/jobs/{id}/result  just the result (202 while running)
//	GET    /v1/jobs/{id}/events  SSE progress stream (replays history)
//	POST   /v1/sweeps            submit a SweepSpec job family
//	GET    /v1/sweeps            list sweep families
//	GET    /v1/sweeps/{id}       family detail: per-point states + curve
//	GET    /v1/sweeps/{id}/events SSE stream with point-completion frames
//	DELETE /v1/sweeps/{id}       cancel a family (idempotent)
//	GET    /v1/capabilities      accelerator registry catalog + limits
//	GET    /v1/metrics           telemetry snapshot + scheduler counters
//	GET    /healthz              liveness: ok | degraded | draining (always 200)
//	GET    /readyz               readiness: 503 while draining
//
// Every non-2xx /v1 response carries the uniform error envelope
// {"error": {"code", "message", "retry_after_ms"}} (see errors.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kernel/tuning"
	"repro/internal/runspec"
	"repro/internal/server/journal"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// Config sizes the daemon.
type Config struct {
	// MaxConcurrent bounds simultaneously running jobs (default 4).
	MaxConcurrent int
	// QueueDepth bounds accepted-but-not-running jobs; a full queue
	// rejects submissions with 503 (default 64).
	QueueDepth int
	// SimWorkers is the width of the shared simulation pool every job
	// draws from (0 = GOMAXPROCS).
	SimWorkers int
	// SpoolDir holds per-job checkpoints and the job journal (default: a
	// vqed-spool directory under the OS temp dir).
	SpoolDir string
	// CacheCapacity bounds the result cache entries (default 256).
	CacheCapacity int
	// DisableCache turns the result cache off entirely, so repeated
	// specs pay full service time — load runs use this to measure
	// cold-path latency.
	DisableCache bool
	// RetryBudget is how many times a retryably-failed job (worker panic,
	// watchdog stall, transient engine fault) is re-queued before it
	// settles terminally (default 2; negative = 0).
	RetryBudget int
	// StallTimeout is the no-progress deadline: a running job that emits
	// no engine heartbeat for this long is cancelled by the watchdog and
	// retried (0 disables the watchdog).
	StallTimeout time.Duration
	// FaultHook, when set, observes every engine progress sample and may
	// panic or stall — the chaos harness's worker fault injection. Never
	// set it in production.
	FaultHook FaultHook
	// Logf receives operational log lines (recovery, degradation,
	// retries); nil discards them. The vqed CLI wires log.Printf.
	Logf func(format string, args ...any)
	// MaxSweepPoints caps how many points one sweep family may expand to
	// (default 256; the schema-level ceiling is runspec.MaxSweepPoints).
	MaxSweepPoints int
}

// journalFile is the WAL's name under the spool dir.
const journalFile = "journal.wal"

// servedCheckpointGap is the wall-clock floor between periodic snapshots
// of a point whose spec leaves resilience.checkpoint_every at 0. A served
// 6-qubit sweep point runs for about half a millisecond of engine time,
// and a snapshot on every optimizer iteration (marshal, fsync, rename)
// cost it some thirty times that; a second of lost work is what a crash
// may cost instead. A point
// that ends within the floor writes no snapshot, so recovery cold-starts
// it, which reproduces the same bits. A drain still snapshots every
// running point.
const servedCheckpointGap = time.Second

// settledBudget bounds, per view (jobs, sweeps), the settled points the
// family table and so the journal retain: the most recently settled
// families up to this many points, the least recently settled evicted
// first. Settlement order, not id order: a family that ran long settles
// after hundreds of younger ones, and its client must still find it when
// it polls. The last family to settle is kept even when it alone is
// larger, and so is the view's highest id, so ids are never reused after
// compaction and a restart. An evicted id answers 410. With the
// checkpoint floor a daemon settles sweep families several times faster
// than before; at 512 its resident memory stays below what it was, at
// 1 024 it did not.
const settledBudget = 512

// Server is the daemon core: scheduler, family store, result cache,
// journal, and the HTTP handler over them.
type Server struct {
	cfg  Config
	pool *state.Pool
	mux  *http.ServeMux
	// queue carries admitted families; a family occupies one worker slot
	// and executes its points sequentially.
	queue chan *family

	runCtx context.Context
	cancel context.CancelFunc
	// wg counts the worker fleet, the watchdog, and every admission past
	// the draining gate; Shutdown waits on it before closing the journal.
	wg      sync.WaitGroup
	running atomic.Int64
	// avgRunNs is the EWMA of recent queue-item execution times that
	// EstimateWait prices the backlog by.
	avgRunNs atomic.Int64
	// spoolOK is false once the checkpoint spool proved unwritable;
	// subsequent jobs run without checkpointing (degraded durability).
	spoolOK    atomic.Bool
	compacting atomic.Bool
	// journalGate orders appends against compaction: every append holds
	// it shared, a compaction holds it exclusively from its snapshot of
	// the family table to the file swap. A record appended in between
	// would be written to the file the swap discards — an acknowledged
	// family the restarted daemon has never heard of. A compaction takes
	// mu and family locks inside it; no append holds either.
	journalGate sync.RWMutex

	mu       sync.Mutex
	draining bool
	// jn is the write-ahead journal; nil when the spool or the journal
	// was unusable at start or it has been shed after a disk error.
	jn *journal.Journal
	// degradedReason is non-empty once any durability surface has been
	// shed; /healthz reports it.
	degradedReason string
	// queued is the admission-control backlog: families accepted into
	// the queue channel and not yet picked up. The channel itself is sized
	// with slack for recovery, so this counter — not the channel capacity
	// — enforces QueueDepth.
	queued int
	// families is the one table, keyed by ID; seq and order are the
	// per-view (kindJob, kindSweep) id sequences and listing orders (id
	// ascending). retired lists each view's settled families in the order
	// they settled, and settled counts their points, which settledBudget
	// bounds.
	families map[string]*family
	seq      map[string]int
	order    map[string][]string
	retired  map[string][]*family
	settled  map[string]int
	// watch maps running family IDs to their heartbeat and cancel handles
	// for the stuck-job watchdog.
	watch      map[string]*watchEntry
	cache      map[string]*runspec.Result
	cacheOrder []string
}

// watchEntry is one watchdog registration: the heartbeat to compare
// against the no-progress deadline and the cancel that fires on stall.
type watchEntry struct {
	beat   *atomic.Int64
	cancel context.CancelCauseFunc
}

// New builds a server, replays the job journal, and starts the worker
// fleet and watchdog. A broken spool or journal degrades durability but
// never fails construction — the daemon serves regardless.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 256
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 256
	}
	if cfg.MaxSweepPoints > runspec.MaxSweepPoints {
		cfg.MaxSweepPoints = runspec.MaxSweepPoints
	}
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = filepath.Join(os.TempDir(), "vqed-spool")
	}
	//vqelint:ignore ctxflow daemon lifecycle root: New has no caller context; Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		pool:     state.NewPool(cfg.SimWorkers),
		runCtx:   ctx,
		cancel:   cancel,
		families: map[string]*family{},
		seq:      map[string]int{},
		order:    map[string][]string{},
		retired:  map[string][]*family{},
		settled:  map[string]int{},
		watch:    map[string]*watchEntry{},
		cache:    map[string]*runspec.Result{},
	}
	s.spoolOK.Store(true)
	s.routes()

	var recs []journal.Record
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		// Serve-but-warn: no spool means no checkpoints and no journal,
		// not a dead daemon.
		s.spoolOK.Store(false)
		s.degrade(fmt.Sprintf("spool dir unusable: %v", err))
	} else {
		jn, replayed, err := journal.Open(filepath.Join(cfg.SpoolDir, journalFile))
		if err != nil {
			s.degrade(fmt.Sprintf("journal unusable: %v", err))
		} else {
			s.jn = jn
			recs = replayed
		}
	}

	// Rebuild the family table before sizing the queue: the channel needs
	// room for QueueDepth admissions plus every recovered entry (and slack
	// for admissions racing a pick-up), so sends after admission never
	// block.
	pending := s.replay(recs)
	s.queue = make(chan *family, cfg.QueueDepth+cfg.MaxConcurrent+len(pending)+64)
	for _, f := range pending {
		s.queued++
		s.queue <- f
	}
	if len(s.families) > 0 {
		s.logf("vqed: journal replay: %d job(s) and %d sweep(s) restored, %d re-enqueued",
			len(s.order[kindJob]), len(s.order[kindSweep]), len(pending))
	}
	s.compactIfNeeded(len(recs) > 0)

	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.StallTimeout > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the shared simulation pool (tests assert sharing).
func (s *Server) Pool() *state.Pool { return s.pool }

// logf forwards to the configured logger.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// degrade sheds the journal (keeping the first failure as the reported
// reason) and flips /healthz to "degraded". The daemon keeps serving.
func (s *Server) degrade(reason string) {
	s.mu.Lock()
	if s.degradedReason == "" {
		s.degradedReason = reason
	}
	jn := s.jn
	s.jn = nil
	s.mu.Unlock()
	if jn != nil {
		jn.Close()
	}
	s.logf("vqed: degraded durability: %s", reason)
}

// degradeSpool stops assigning checkpoint paths after a checkpoint write
// failure; points keep running without durability.
func (s *Server) degradeSpool(reason string) {
	if s.spoolOK.CompareAndSwap(true, false) {
		s.mu.Lock()
		if s.degradedReason == "" {
			s.degradedReason = reason
		}
		s.mu.Unlock()
		s.logf("vqed: degraded durability: %s", reason)
	}
}

// journalAppend durably records one lifecycle transition; a write failure
// degrades journaling rather than failing the family.
func (s *Server) journalAppend(rec journal.Record) {
	s.mu.Lock()
	jn := s.jn
	s.mu.Unlock()
	if jn == nil {
		return
	}
	s.journalGate.RLock()
	defer s.journalGate.RUnlock()
	if err := jn.Append(rec); err != nil {
		s.degrade(fmt.Sprintf("journal append failed: %v", err))
	}
}

// cachedResult probes the result cache (takes s.mu).
func (s *Server) cachedResult(hash string) *runspec.Result {
	if s.cfg.DisableCache {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache[hash]
}

// cacheStore inserts a result under FIFO eviction (takes s.mu); a no-op
// with the cache disabled.
func (s *Server) cacheStore(hash string, res *runspec.Result) {
	if s.cfg.DisableCache {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache[hash]; ok {
		return
	}
	s.cache[hash] = res
	s.cacheOrder = append(s.cacheOrder, hash)
	if len(s.cacheOrder) > s.cfg.CacheCapacity {
		evict := s.cacheOrder[0]
		s.cacheOrder = s.cacheOrder[1:]
		delete(s.cache, evict)
	}
}

// Shutdown drains gracefully: new submissions are refused, in-flight
// runs are cancelled — their optimizers halt at the next iteration
// boundary, write final checkpoints into the spool, and journal
// "checkpointed" records so the next start resumes them — then the
// journal and pool close. The context bounds how long to wait for
// workers to settle.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// Cancel in-flight runs; queued families stay journaled as accepted
	// and are re-enqueued on the next start.
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: shutdown wait: %w", ctx.Err())
	}
	s.mu.Lock()
	jn := s.jn
	s.jn = nil
	s.mu.Unlock()
	if jn != nil {
		if cErr := jn.Close(); cErr != nil && err == nil {
			err = cErr
		}
	}
	s.pool.Close()
	return err
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList(kindJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.withFamily(kindJob, s.handleDetail))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.withFamily(kindJob, s.handleResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.withFamily(kindJob, streamEvents))
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList(kindSweep))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.withFamily(kindSweep, s.handleDetail))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.withFamily(kindSweep, streamEvents))
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.withFamily(kindSweep, s.handleCancel))
	s.mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
}

// register adds a family to the table and its view's listing (caller
// holds s.mu, or is recovery before the fleet starts).
func (s *Server) register(f *family) {
	s.families[f.ID] = f
	s.order[f.kind()] = append(s.order[f.kind()], f.ID)
}

// retire counts a family that has settled for good against its view's
// settledBudget and evicts what no longer fits. Idempotent.
func (s *Server) retire(f *family) {
	s.mu.Lock()
	if f.final {
		s.mu.Unlock()
		return
	}
	s.enlist(f)
	gone := s.evict(f.kind())
	s.mu.Unlock()
	dropCheckpoints(gone)
}

// enlist appends a settled family to its view's settlement order. The
// caller holds s.mu (or is recovery before the fleet starts).
func (s *Server) enlist(f *family) {
	f.final = true
	s.retired[f.kind()] = append(s.retired[f.kind()], f)
	s.settled[f.kind()] += len(f.points)
}

// evict drops one view's least recently settled families until its
// settled points fit settledBudget, keeping the last to settle and the
// view's highest id. A family that replay would re-enqueue (queued,
// running, or parked by a drain) has not settled and is never a
// candidate. The caller holds s.mu and removes the evicted families'
// spool files (dropCheckpoints) after releasing it.
func (s *Server) evict(kind string) []*family {
	if s.settled[kind] <= settledBudget {
		return nil
	}
	q, ids := s.retired[kind], s.order[kind]
	highest := ids[len(ids)-1]
	var gone []*family
	kept := q[:0]
	for i, f := range q {
		if s.settled[kind] > settledBudget && i < len(q)-1 && f.ID != highest {
			s.settled[kind] -= len(f.points)
			delete(s.families, f.ID)
			gone = append(gone, f)
			continue
		}
		kept = append(kept, f)
	}
	clear(q[len(kept):])
	s.retired[kind] = kept
	listed := ids[:0]
	for _, id := range ids {
		if s.families[id] != nil {
			listed = append(listed, id)
		}
	}
	clear(ids[len(listed):])
	s.order[kind] = listed
	return gone
}

// dropCheckpoints deletes the spool snapshots evicted families still
// own: a halted job's, or a failed or cancelled point's.
func dropCheckpoints(gone []*family) {
	for _, f := range gone {
		f.mu.Lock()
		for _, p := range f.points {
			if p.checkpoint != "" {
				os.Remove(p.checkpoint)
			}
		}
		f.mu.Unlock()
	}
}

// issued reports whether id is one this daemon handed out for the view:
// canonical in form and no later than the view's sequence. Every admitted
// family consumes a sequence number and nothing else does, so an issued id
// missing from the table was evicted. Caller holds s.mu.
func (s *Server) issued(kind, id string) bool {
	n := seqOf(kind, id)
	return n > 0 && n <= s.seq[kind] && id == fmt.Sprintf("%s-%06d", kind, n)
}

// maxSpecBytes bounds a submitted spec or sweep document.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.serveAdmission(w, r, func(body []byte) (*family, error) {
		spec, err := runspec.Parse(body)
		if err != nil {
			return nil, err
		}
		return s.Submit(spec)
	})
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	s.serveAdmission(w, r, func(body []byte) (*family, error) {
		ss, err := runspec.ParseSweep(body)
		if err != nil {
			return nil, err
		}
		return s.SubmitSweep(ss)
	})
}

// serveAdmission is the POST handler behind both views: submit parses the
// bounded body and admits it.
func (s *Server) serveAdmission(w http.ResponseWriter, r *http.Request,
	submit func(body []byte) (*family, error)) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("spec document too large"))
		return
	}
	f, err := submit(body)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Quote a wait proportional to actual load: backlog ÷ fleet,
		// priced by the measured run-time EWMA.
		writeAPIError(w, http.StatusServiceUnavailable, codeQueueFull, err.Error(), s.EstimateWait())
		return
	case errors.Is(err, ErrShuttingDown):
		writeAPIError(w, http.StatusServiceUnavailable, codeShuttingDown, err.Error(), 0)
		return
	case errors.Is(err, errSweepTooLarge):
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, err.Error(), 0)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if st, _, _ := f.snapshot(); st.Terminal() {
		// Every point answered from cache: the family is already settled.
		status = http.StatusOK
	}
	writeJSON(w, status, f.view(true))
}

func (s *Server) handleList(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		families := make([]*family, 0, len(s.order[kind]))
		for _, id := range s.order[kind] {
			families = append(families, s.families[id])
		}
		s.mu.Unlock()
		views := make([]any, len(families))
		for i, f := range families {
			views[i] = f.view(false)
		}
		writeJSON(w, http.StatusOK, map[string]any{kind + "s": views})
	}
}

// withFamily resolves the {id} path value to a family of the view the
// route belongs to, answering 410 for an id the view issued and has since
// evicted (settledBudget) and 404 for any other unknown one.
func (s *Server) withFamily(kind string, h func(http.ResponseWriter, *http.Request, *family)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		f := s.families[id]
		evicted := f == nil && s.issued(kind, id)
		s.mu.Unlock()
		switch {
		case evicted:
			writeAPIError(w, http.StatusGone, codeEvicted,
				fmt.Sprintf("%s %q settled and was evicted from the daemon's table", kind, id), 0)
		case f == nil || f.kind() != kind:
			writeError(w, http.StatusNotFound, fmt.Errorf("no %s %q", kind, id))
		default:
			h(w, r, f)
		}
	}
}

func (s *Server) handleDetail(w http.ResponseWriter, r *http.Request, f *family) {
	writeJSON(w, http.StatusOK, f.view(true))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, f *family) {
	status, result, errMsg := f.snapshot()
	switch {
	case status == StatusFailed:
		writeJSON(w, http.StatusOK, map[string]any{"status": status, "error": errMsg})
	case result != nil:
		writeJSON(w, http.StatusOK, result)
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"status": status})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, f *family) {
	s.cancelFamily(f)
	writeJSON(w, http.StatusOK, f.view(true))
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	kernelTuning := tuning.Snapshot()
	kernelTuning["cluster_pool_min"] = cluster.PoolMinAmps
	writeJSON(w, http.StatusOK, map[string]any{
		"accelerators": runspec.Backends(),
		"algorithms":   []string{runspec.AlgorithmVQE, runspec.AlgorithmAdapt, runspec.AlgorithmQPE},
		"spec_hash":    runspec.HashPrefix,
		"sweep_hash":   runspec.SweepHashPrefix,
		"sweep_axes": []string{runspec.AxisDistance, runspec.AxisHopping,
			runspec.AxisRepulsion, runspec.AxisLayers, runspec.AxisDownfold},
		"max_sweep_points": s.cfg.MaxSweepPoints,
		"max_concurrent":   s.cfg.MaxConcurrent,
		"queue_depth":      s.cfg.QueueDepth,
		"sim_workers":      s.pool.Workers(),
		"kernel_tuning":    kernelTuning,
	})
}

// handleMetrics surfaces the process-wide telemetry scope — the same
// instruments the CLIs' run reports draw from, now including the
// server.* scheduler counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = telemetry.Capture().WriteJSON(w)
}

// handleHealth is liveness: always 200 while the process serves. The
// status field distinguishes full durability ("ok") from shed durability
// ("degraded") and drain-in-progress ("draining").
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	degraded := s.degradedReason
	journaling := s.jn != nil
	total := len(s.order[kindJob])
	sweeps := len(s.order[kindSweep])
	s.mu.Unlock()
	status := "ok"
	if degraded != "" {
		status = "degraded"
	}
	if draining {
		status = "draining"
	}
	body := map[string]any{
		"status":     status,
		"jobs":       total,
		"sweeps":     sweeps,
		"queued":     len(s.queue),
		"running":    s.running.Load(),
		"journaling": journaling,
	}
	if degraded != "" {
		body["degraded_reason"] = degraded
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReady is readiness, split from liveness: a draining daemon is
// alive (healthz 200) but must stop receiving traffic (readyz 503). A
// degraded daemon still serves — durability loss is a warning, not an
// outage.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

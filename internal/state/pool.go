package state

import (
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// Pool is a persistent goroutine worker pool for chunked index-range work.
// It replaces the per-gate and per-term goroutine spawning the engine used
// previously: the goroutines are created once (per State, shared with its
// clones) and fed contiguous [lo, hi) ranges through a channel, so a VQE
// energy evaluation that applies thousands of gates and reduces thousands
// of Pauli terms pays goroutine start-up cost exactly once. This mirrors
// the paper's §4.2.3 arrangement where one persistent CUDA grid serves
// every kernel launch of an evaluation.
//
// A Pool is safe for concurrent use by multiple submitters. Bodies must
// not themselves submit work to the same pool (no nesting): with all
// workers occupied by parent bodies the nested submit would deadlock.
type Pool struct {
	workers  int
	jobs     chan poolJob
	quit     chan struct{}
	shutdown sync.Once
}

type poolJob struct {
	slot   int
	lo, hi uint64
	body   func(slot int, lo, hi uint64)
	wg     *sync.WaitGroup
}

// floatStride is the per-slot stride (in elements) that keeps each
// chunk's partial-result slot on its own 64-byte cache line, so workers
// never invalidate each other's lines while accumulating (false-sharing
// fix; 8 float64 = 64 B).
const floatStride = 8

// NewPool starts a pool of the given width (0 or negative means
// GOMAXPROCS). The workers hold references only to the pool's channels,
// never to the Pool itself, so an abandoned Pool becomes unreachable and
// the finalizer reclaims the goroutines; callers that want deterministic
// shutdown can Close explicitly.
func NewPool(workers int) *Pool {
	workers = ResolveWorkers(workers)
	p := &Pool{workers: workers, jobs: make(chan poolJob), quit: make(chan struct{})}
	for w := 0; w < workers; w++ {
		go poolWorker(p.jobs, p.quit)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	mPoolWorkers.Set(int64(workers))
	return p
}

// poolWorker is the per-goroutine job loop.
//
//vqesim:hotpath
func poolWorker(jobs <-chan poolJob, quit <-chan struct{}) {
	for {
		select {
		case <-quit:
			return
		case j := <-jobs:
			start := telemetry.Now()
			j.body(j.slot, j.lo, j.hi)
			mPoolBusy.Since(start)
			mPoolChunks.Inc()
			j.wg.Done()
		}
	}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Close stops the worker goroutines. Idempotent; a closed pool must not
// receive further Run calls.
func (p *Pool) Close() {
	p.shutdown.Do(func() {
		runtime.SetFinalizer(p, nil)
		close(p.quit)
	})
}

// Run splits [0, total) into at most `chunks` contiguous ranges and runs
// body(slot, lo, hi) for each on the pool, blocking until all complete.
// slot is the chunk index (0 ≤ slot < chunks, dense from 0) and is stable
// per range, so callers can hand every chunk a private accumulator block.
// chunks ≤ 0 means the pool width.
//
//vqesim:hotpath
func (p *Pool) Run(total uint64, chunks int, body func(slot int, lo, hi uint64)) {
	if total == 0 {
		return
	}
	if chunks <= 0 {
		chunks = p.workers
	}
	mPoolRuns.Inc()
	chunk := (total + uint64(chunks) - 1) / uint64(chunks)
	var wg sync.WaitGroup
	slot := 0
	for lo := uint64(0); lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		p.jobs <- poolJob{slot: slot, lo: lo, hi: hi, body: body, wg: &wg}
		slot++
	}
	wg.Wait()
}

// numChunks reports how many slots Run will use for the given split.
func numChunks(total uint64, chunks int) int {
	if total == 0 {
		return 0
	}
	chunk := (total + uint64(chunks) - 1) / uint64(chunks)
	return int((total + chunk - 1) / chunk)
}

// ReduceFloat runs body over at most `chunks` ranges of [0, total) and
// returns the sum of the per-chunk partials. Each chunk accumulates into a
// local and writes exactly once into a cache-line-padded slot.
func (p *Pool) ReduceFloat(total uint64, chunks int, body func(lo, hi uint64) float64) float64 {
	if chunks <= 0 {
		chunks = p.workers
	}
	partial := make([]float64, numChunks(total, chunks)*floatStride)
	p.Run(total, chunks, func(slot int, lo, hi uint64) {
		partial[slot*floatStride] = body(lo, hi)
	})
	acc := 0.0
	for i := 0; i < len(partial); i += floatStride {
		acc += partial[i]
	}
	return acc
}

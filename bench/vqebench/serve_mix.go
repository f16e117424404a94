package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/bench/probe"
	"repro/internal/runspec"
)

// mixRecord is what the client learned about one operation of the mix.
type mixRecord struct {
	op     mixOp
	out    jobOutcome
	err    error
	traced bool
}

// serveMix drives vqed over loopback HTTP with the seeded mix of small
// jobs: 70 % specs the daemon has never seen, 30 % guaranteed cache hits.
// Jobs are 4–8 qubits, so admission, the journal fsync, the queue, SSE and
// runspec set-up are a visible share of every job.
type serveMix struct {
	served
	gen  *mixGen
	next int

	mu      sync.Mutex
	records map[int]*mixRecord
	done    map[int]chan struct{}
}

func newServeMix(c config) *serveMix { return &serveMix{served: newServed(c)} }

func (w *serveMix) setUp(ctx context.Context) error {
	w.gen = newMixGen(w.cfg.seed)
	w.records = map[int]*mixRecord{}
	w.done = map[int]chan struct{}{}
	if err := w.boot(ctx); err != nil {
		return err
	}
	// Warm-up: the first mixWarm operations, all fresh, outside the clock.
	w.next = 0
	warm := closedLoop(ctx, time.Hour, mixWarm, serveClients, &w.next, func(ctx context.Context, c, i int) opResult {
		return w.submit(ctx, c, i, nil)
	})
	if warm.failed > 0 {
		return fmt.Errorf("serve_mix warm-up: %d of %d submissions failed", warm.failed, mixWarm)
	}
	return nil
}

// doneCh returns the channel closed when operation i has completed.
func (w *serveMix) doneCh(i int) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.done[i]
	if !ok {
		ch = make(chan struct{})
		w.done[i] = ch
	}
	return ch
}

// submit runs operation i on client c and records what came back.
func (w *serveMix) submit(ctx context.Context, c, i int, rec *recorder) opResult {
	op := w.gen.op(i)
	if op.Ref >= 0 {
		// A hit must find its referent settled, or it would not be a hit.
		select {
		case <-w.doneCh(op.Ref):
		case <-ctx.Done():
		}
	}
	out, err := w.clients[c].runJob(ctx, op.Body)
	if rec != nil && err == nil {
		id := rec.add("job", 0, i+1, out.Sent, out.Terminal)
		rec.add("server.submit", id, i+1, out.Sent, out.Acked)
		if !out.View.CacheHit {
			serverSpans(rec, id, i+1, out.View.Submitted, out.View.Started, out.View.Finished, out.Terminal)
			progressGaps(rec, id, i+1, out.Frames)
		}
	}
	w.mu.Lock()
	w.records[i] = &mixRecord{op: op, out: out, err: err, traced: rec != nil}
	w.mu.Unlock()
	close(w.doneCh(i))
	return opResult{ok: err == nil && out.View.Status == "done",
		ms: float64(out.Terminal.Sub(out.Sent)) / 1e6, done: []time.Time{out.Terminal}}
}

func (w *serveMix) measure(ctx context.Context, d time.Duration, rec *recorder) window {
	return w.account(ctx, rec, func() window {
		return closedLoop(ctx, d, 0, serveClients, &w.next, func(ctx context.Context, c, i int) opResult {
			return w.submit(ctx, c, i, rec)
		})
	})
}

// recheckEvery picks the seeded 2 % of fresh specs that verify re-runs
// in-process.
const recheckEvery = 50

func (w *serveMix) verify(ctx context.Context) []string {
	var out []string
	bad := func(format string, args ...any) {
		if len(out) < 20 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	pick := newRNG(w.cfg.seed, "serve_mix/recheck").intn(recheckEvery)
	for i := 0; i < w.next; i++ {
		r := w.records[i]
		if r == nil {
			continue
		}
		v := r.out.View
		switch {
		case r.err != nil:
			bad("op %d (%s): %v", i, r.op.Class, r.err)
			continue
		case v.Status != "done" || v.Result == nil:
			bad("op %d (%s): status %q %s", i, r.op.Class, v.Status, v.Error)
			continue
		case v.Result.Energy < v.Result.Exact-1e-9:
			bad("op %d (%s): energy %.12g below exact %.12g", i, r.op.Class, v.Result.Energy, v.Result.Exact)
		case v.CacheHit != (r.op.Ref >= 0):
			bad("op %d (%s): cache_hit=%v, generated as hit=%v", i, r.op.Class, v.CacheHit, r.op.Ref >= 0)
		}
		if r.op.Ref >= 0 {
			first := w.records[r.op.Ref]
			if first == nil || first.out.View.Result == nil ||
				math.Float64bits(first.out.View.Result.Energy) != math.Float64bits(v.Result.Energy) ||
				first.out.View.SpecHash != v.SpecHash {
				bad("op %d: hit energy %.17g differs from the first result of its spec", i, v.Result.Energy)
			}
			continue
		}
		if i%recheckEvery == pick {
			spec, err := runspec.Parse([]byte(r.op.Body))
			if err != nil {
				bad("op %d: %v", i, err)
				continue
			}
			res, err := runspec.Run(ctx, spec, runspec.RunOptions{})
			if err != nil {
				bad("op %d: in-process re-run: %v", i, err)
			} else if math.Abs(res.Energy-v.Result.Energy) > 1e-9 {
				bad("op %d (%s): served energy %.12g, in-process %.12g", i, r.op.Class, v.Result.Energy, res.Energy)
			}
		}
	}
	return out
}

func (w *serveMix) layers(ctx context.Context, rec *recorder) (probe.Metrics, error) {
	spans := rec.snapshot()
	// Split the traced operations into hits and misses.
	var hit, miss, evals []float64
	hits, total := 0.0, 0.0
	w.mu.Lock()
	for _, r := range w.records {
		if !r.traced || r.err != nil {
			continue
		}
		total++
		ms := float64(r.out.Terminal.Sub(r.out.Sent)) / 1e6
		if r.out.View.CacheHit {
			hits++
			hit = append(hit, ms)
		} else {
			miss = append(miss, ms)
			if r.out.View.Result != nil {
				evals = append(evals, float64(r.out.View.Result.EnergyEvaluations))
			}
		}
	}
	w.mu.Unlock()
	m, err := w.layersCommon(ctx, spans, "job", total)
	if err != nil {
		return nil, err
	}
	m["server.hit_p50_ms"] = probe.Median(hit)
	m["server.miss_p50_ms"] = probe.Median(miss)
	m["server.cache_hit_share"] = probe.Ratio(hits, total)
	m["vqe.energy_evaluations"] = probe.Median(evals)

	// Layer probes on the mix's most common spec, solved in-process first
	// for its final θ.
	body := w.gen.op(0).Body
	spec, err := runspec.Parse([]byte(body))
	if err != nil {
		return nil, err
	}
	t := runTimed(ctx, spec, runspec.RunOptions{})
	if t.err != nil {
		return nil, t.err
	}
	spec.ApplyDefaults()
	lm, err := layerProbes(w.cfg.probe, body, probe.Inputs{Spec: spec, Theta: t.res.Params})
	if err != nil {
		return nil, err
	}
	m.Add(lm)
	m.Add(t.setupMetrics())
	return m, nil
}

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

// sweepRecord is what the client learned about one family.
type sweepRecord struct {
	k      int
	out    sweepOutcome
	err    error
	traced bool
}

// serveSweep posts 33-point Hubbard families to /v1/sweeps and watches
// each on its family SSE stream. It uses the daemon differently from
// serveMix — the second lifecycle, point-level journal records, the build
// cache and nearest-neighbour warm starts — so a gain for jobs that costs
// sweeps (or the reverse) shows.
type serveSweep struct {
	served
	// points is the size of each family, body its generator and warmBody
	// the warm-up family; tests shrink them.
	points   int
	body     func(seed uint64, k int) string
	warmBody func(seed uint64) string
	next     int

	mu      sync.Mutex
	records []*sweepRecord
}

func newServeSweep(c config) *serveSweep {
	return &serveSweep{served: newServed(c), points: familyPoints, body: familyBody, warmBody: familyWarmBody}
}

func (w *serveSweep) setUp(ctx context.Context) error {
	w.records = nil
	w.next = 0
	if err := w.boot(ctx); err != nil {
		return err
	}
	out, err := w.clients[0].runSweep(ctx, w.warmBody(w.cfg.seed))
	if err != nil {
		return err
	}
	if out.View.Status != "done" {
		return fmt.Errorf("serve_sweep warm-up family ended %q", out.View.Status)
	}
	return nil
}

func (w *serveSweep) measure(ctx context.Context, d time.Duration, rec *recorder) window {
	return w.account(ctx, rec, func() window {
		return closedLoop(ctx, d, 0, serveClients, &w.next, func(ctx context.Context, c, k int) opResult {
			out, err := w.clients[c].runSweep(ctx, w.body(w.cfg.seed, k))
			if rec != nil && err == nil {
				w.record(rec, k+1, out)
			}
			w.mu.Lock()
			w.records = append(w.records, &sweepRecord{k: k, out: out, err: err, traced: rec != nil})
			w.mu.Unlock()
			// A family's work completes point by point, as the stream says.
			var done []time.Time
			for _, f := range out.Frames {
				if f.Type == "point_done" {
					done = append(done, f.At)
				}
			}
			return opResult{ok: err == nil && out.View.Status == "done",
				ms: float64(out.Terminal.Sub(out.Sent)) / 1e6, done: done}
		})
	})
}

func (w *serveSweep) record(rec *recorder, op int, out sweepOutcome) {
	id := rec.add("family", 0, op, out.Sent, out.Terminal)
	rec.add("server.submit", id, op, out.Sent, out.Acked)
	serverSpans(rec, id, op, out.View.Submitted, out.View.Started, out.View.Finished, out.Terminal)
	prev := out.Acked
	first := true
	for _, f := range out.Frames {
		if f.Type != "point_done" && f.Type != "point_failed" {
			continue
		}
		name := "server.point_gap"
		if first {
			name, first = "server.first_point", false
		}
		rec.add(name, id, op, prev, f.At)
		prev = f.At
	}
	progressGaps(rec, id, op, out.Frames)
}

func (w *serveSweep) verify(ctx context.Context) []string {
	var out []string
	bad := func(format string, args ...any) {
		if len(out) < 20 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	pick := newRNG(w.cfg.seed, "serve_sweep/recheck").intn(recheckEvery)
	for _, r := range w.records {
		v := r.out.View
		switch {
		case r.err != nil:
			bad("family %d: %v", r.k, r.err)
			continue
		case v.Status != "done" || v.Done != w.points || v.Failed != 0 || len(v.Curve) != w.points:
			bad("family %d: status %q, %d/%d points done, %d failed", r.k, v.Status, v.Done, w.points, v.Failed)
			continue
		case v.CacheHits != 0:
			bad("family %d: %d points answered from cache; families must not share points", r.k, v.CacheHits)
		}
		for _, p := range v.Curve {
			if p.Energy < p.Exact-1e-9 {
				bad("family %d, u=%g: energy %.12g below exact %.12g", r.k, p.Value, p.Energy, p.Exact)
			}
		}
		// The first family and a seeded 2 % are re-run in-process through
		// RunSweep, which walks the same order with the same warm starts.
		if r.k != 0 && r.k%recheckEvery != pick {
			continue
		}
		ss, err := runspec.ParseSweep([]byte(w.body(w.cfg.seed, r.k)))
		if err != nil {
			bad("family %d: %v", r.k, err)
			continue
		}
		res, err := runspec.RunSweep(ctx, ss, runspec.SweepRunOptions{})
		if err != nil {
			bad("family %d: in-process re-run: %v", r.k, err)
			continue
		}
		byValue := map[float64]float64{}
		for _, p := range res.Points {
			if p.Result != nil {
				byValue[p.Value] = p.Result.Energy
			}
		}
		for _, p := range v.Curve {
			if e, ok := byValue[p.Value]; !ok || math.Abs(e-p.Energy) > 1e-9 {
				bad("family %d, u=%g: served energy %.12g, in-process %.12g", r.k, p.Value, p.Energy, e)
			}
		}
	}
	return out
}

func (w *serveSweep) layers(ctx context.Context, rec *recorder) (probe.Metrics, error) {
	spans := rec.snapshot()
	families, evals, points, hits := 0.0, 0.0, 0.0, 0.0
	w.mu.Lock()
	for _, r := range w.records {
		if r.traced && r.err == nil {
			families++
			evals += float64(r.out.View.EnergyEvaluations)
			points += float64(r.out.View.Done)
			hits += float64(r.out.View.CacheHits)
		}
	}
	w.mu.Unlock()
	m, err := w.layersCommon(ctx, spans, "family", families)
	if err != nil {
		return nil, err
	}
	m["server.first_point_ms"] = probe.Median(durationsMs(spans, "server.first_point"))
	m["server.point_gap_p50_ms"] = probe.Median(durationsMs(spans, "server.point_gap"))
	m["vqe.energy_evaluations"] = probe.Ratio(evals, points)
	m["server.cache_hit_share"] = probe.Ratio(hits, points)

	// One family in-process: what it costs with no daemon around it.
	body := w.body(w.cfg.seed, 0)
	res, sm, err := probe.Sweep(w.cfg.probe, []byte(body))
	if err != nil {
		return nil, err
	}
	m.Add(sm)
	m["server.family_overhead_share"] = 1 - probe.Ratio(sm["runspec.sweep_inproc_s"]*1e3, probe.Median(durationsMs(spans, "family")))

	// Layer probes on the family's middle point and the θ it converged to.
	ss, err := runspec.ParseSweep([]byte(body))
	if err != nil {
		return nil, err
	}
	pts, err := ss.Points()
	if err != nil {
		return nil, err
	}
	mid := pts[len(pts)/2]
	spec := *mid.Spec
	t := runTimed(ctx, &spec, runspec.RunOptions{})
	if t.err != nil {
		return nil, t.err
	}
	lm, err := layerProbes(w.cfg.probe, mustJSON(spec), probe.Inputs{Spec: &spec, Theta: res.Points[mid.Index].Result.Params})
	if err != nil {
		return nil, err
	}
	m.Add(lm)
	m.Add(t.setupMetrics())
	return m, nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/bench/probe"
	"repro/internal/runspec"
)

// wide20 is the memory-bound corner: a 20-qubit state (16 MiB) that no
// longer fits the 4 MiB L2, driven through the fused executor. One window
// is one walltime-bounded runspec.Run — the HPC way of running VQE: the
// context expires, Nelder–Mead stops at its next iteration boundary and
// reports the best point so far. Work is counted in energy evaluations.
type wide20 struct {
	inProcess
	cfg      config
	body     string
	warmBody string
	params   int
	// golden maps a seed to the best energy after the initial simplex of
	// that seed's first run, produced with fusion off.
	golden map[uint64]float64

	spec *runspec.RunSpec
	next int
	runs []timedRun
}

func newWide20(c config) *wide20 {
	return &wide20{cfg: c, body: wideBody, warmBody: wideWarmBody, params: wideParams, golden: goldenWide}
}

func (w *wide20) setUp(ctx context.Context) error {
	spec, err := runspec.Parse([]byte(w.body))
	if err != nil {
		return err
	}
	warm, err := runspec.Parse([]byte(w.warmBody))
	if err != nil {
		return err
	}
	wa := warm.Canonical()
	n := 2 * wa.Molecule.Sites
	theta := wideTheta(w.cfg.seed, -1, 2*n*(wa.Ansatz.Layers+1))
	if _, err := runspec.Run(ctx, warm, runspec.RunOptions{InitialParams: theta}); err != nil {
		return err
	}
	w.spec = spec
	return nil
}

func (w *wide20) tearDown() {}

func (w *wide20) measure(ctx context.Context, d time.Duration, rec *recorder) window {
	return w.account(rec, func() window {
		k := w.next
		w.next++
		runCtx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		t := runTimed(runCtx, w.spec, runspec.RunOptions{InitialParams: wideTheta(w.cfg.seed, k, w.params)})
		t.record(rec, "vqe.run", k+1)
		w.runs = append(w.runs, t)
		win := window{wall: t.end.Sub(t.start), attempted: 1}
		if t.err != nil {
			win.failed = 1
			return win
		}
		win.work = float64(t.res.EnergyEvaluations)
		// The caller-visible latency of this workload is the time one
		// energy evaluation takes; the window's mean is the one sample an
		// untraced run can take without touching the optimizer.
		win.latMs = []float64{float64(win.wall) / 1e6 / win.work}
		return win
	})
}

// firstEnergy runs the seed's first start vector until the optimizer's
// first report — the best vertex of the initial simplex — with fusion on
// or off. It is what golden.json pins.
func (w *wide20) firstEnergy(ctx context.Context, fusion bool) (float64, error) {
	spec, err := runspec.Parse([]byte(w.body))
	if err != nil {
		return 0, err
	}
	spec.Fusion = fusion
	// An already-expired context stops Nelder–Mead at its first iteration
	// boundary, right after the simplex.
	stop, cancel := context.WithCancel(ctx)
	cancel()
	t := runTimed(stop, spec, runspec.RunOptions{InitialParams: wideTheta(w.cfg.seed, 0, w.params)})
	if t.err != nil {
		return 0, t.err
	}
	return t.firstEnergy, nil
}

func (w *wide20) verify(context.Context) []string {
	var out []string
	for i, t := range w.runs {
		if t.err != nil {
			out = append(out, fmt.Sprintf("run %d: %v", i, t.err))
			continue
		}
		r := t.res
		if r.EnergyEvaluations < w.params+1 {
			out = append(out, fmt.Sprintf("run %d: %d evaluations, fewer than the %d of the simplex", i, r.EnergyEvaluations, w.params+1))
		}
		if r.Energy < r.Exact-1e-9 {
			out = append(out, fmt.Sprintf("run %d: energy %.12g below the exact %.12g", i, r.Energy, r.Exact))
		}
		if g, ok := w.golden[w.cfg.seed]; ok && i == 0 && math.Abs(t.firstEnergy-g) > 1e-8 {
			out = append(out, fmt.Sprintf("run 0: first energy %.12g, golden.json has %.12g", t.firstEnergy, g))
		}
		// The plain interpreter checks the fused one, outside the clock.
		spec := w.spec.Canonical()
		e, err := probe.EnergyUnfused(probe.Inputs{Spec: &spec, Theta: r.Params})
		if err != nil {
			out = append(out, fmt.Sprintf("run %d: recompute: %v", i, err))
		} else if math.Abs(e-r.Energy) > 1e-8 {
			out = append(out, fmt.Sprintf("run %d: fused energy %.12g, unfused recompute %.12g", i, r.Energy, e))
		}
	}
	return out
}

func (w *wide20) layers(_ context.Context, rec *recorder) (probe.Metrics, error) {
	last := w.runs[len(w.runs)-1].res
	m, err := w.layerMetrics(w.cfg.probe, w.body, probe.Inputs{Spec: w.spec, Theta: last.Params}, rec.snapshot(), "vqe.run")
	if err != nil {
		return nil, err
	}
	m["vqe.energy_evaluations"] = float64(last.EnergyEvaluations)
	return m, nil
}

package main

import (
	"context"
	"fmt"
	"time"

	"repro/bench/probe"
	"repro/internal/runspec"
)

// adapt12 solves the paper's Fig. 5 instance over and over: the only
// workload that is a full solve. It takes no seed by design — the
// molecule is the workload.
type adapt12 struct {
	inProcess
	cfg      config
	body     string
	warmBody string
	// wantSteps and tol are the correctness check: an Adapt history of
	// this many steps ending within tol hartree of the exact energy.
	wantSteps int
	tol       float64

	spec     *runspec.RunSpec
	next     int
	runs     []timedRun
	problems []string
}

func newAdapt12(c config) *adapt12 {
	return &adapt12{cfg: c, body: adaptBody, warmBody: adaptWarmBody, wantSteps: 12, tol: 1e-3}
}

func (w *adapt12) setUp(ctx context.Context) error {
	spec, err := runspec.Parse([]byte(w.body))
	if err != nil {
		return err
	}
	warm, err := runspec.Parse([]byte(w.warmBody))
	if err != nil {
		return err
	}
	if _, err := runspec.Run(ctx, warm, runspec.RunOptions{}); err != nil {
		return err
	}
	w.spec = spec
	return nil
}

func (w *adapt12) tearDown() {}

func (w *adapt12) measure(ctx context.Context, d time.Duration, rec *recorder) window {
	return w.account(rec, func() window {
		return closedLoop(ctx, d, 0, 1, &w.next, func(ctx context.Context, _, i int) opResult {
			t := runTimed(ctx, w.spec, runspec.RunOptions{})
			t.record(rec, "adapt.solve", i+1)
			w.runs = append(w.runs, t)
			return opResult{ok: t.err == nil, ms: float64(t.end.Sub(t.start)) / 1e6, done: []time.Time{t.end}}
		})
	})
}

func (w *adapt12) verify(context.Context) []string {
	var out []string
	for i, t := range w.runs {
		switch {
		case t.err != nil:
			out = append(out, fmt.Sprintf("solve %d: %v", i, t.err))
		case t.res.Interrupted:
			out = append(out, fmt.Sprintf("solve %d: interrupted", i))
		case len(t.res.History) != w.wantSteps:
			out = append(out, fmt.Sprintf("solve %d: %d Adapt steps, want %d", i, len(t.res.History), w.wantSteps))
		case !(t.res.ErrorVsExact < w.tol):
			out = append(out, fmt.Sprintf("solve %d: error vs exact %.3g Ha, want < %.3g", i, t.res.ErrorVsExact, w.tol))
		}
	}
	return out
}

func (w *adapt12) layers(_ context.Context, rec *recorder) (probe.Metrics, error) {
	last := w.runs[len(w.runs)-1].res
	in := probe.Inputs{Spec: w.spec, Theta: last.Params}
	for _, st := range last.History {
		in.Operators = append(in.Operators, st.Operator)
	}
	m, err := w.layerMetrics(w.cfg.probe, w.body, in, rec.snapshot(), "adapt.solve")
	if err != nil {
		return nil, err
	}
	m["vqe.energy_evaluations"] = float64(last.EnergyEvaluations)
	m["vqe.adapt_iterations"] = float64(len(last.History))
	return m, nil
}

package vqe

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// energyFunc is a fallible objective: Driver.evaluate, or Deflation's.
type energyFunc func(ctx context.Context, params []float64) (float64, error)

// loop is what one minimization needs around Nelder–Mead or L-BFGS — an
// objective that may fail, cooperative cancellation, checkpoints, result
// assembly — written once, for the driver's own state vector and for
// Options.Backend alike.
type loop struct {
	ctx  context.Context
	eval energyFunc
	kind string // checkpoint kind tag of the routine
	ro   ResilienceOptions
	// err is the first failed evaluation or checkpoint write. The routines
	// have no error path, so from then on objective answers +Inf without
	// evaluating and observer halts the routine at its next boundary.
	err error
}

func (l *loop) objective(x []float64) float64 {
	if l.err != nil {
		return math.Inf(1)
	}
	e, err := l.eval(l.ctx, x)
	if err != nil {
		l.err = err
		return math.Inf(1)
	}
	return e
}

// observer wraps a routine's observer (prev, the caller's progress hook)
// with what every run does at an iteration boundary: a canceled context
// halts the routine, and its state s (iteration count read by iter) is
// snapshotted at that halt and on ro's cadence for a later Resume.
func observer[S any](l *loop, prev func(*S) error, iter func(*S) int) func(*S) error {
	cad := resilience.NewCadence(l.ro.CheckpointEvery, l.ro.CheckpointGap)
	return func(s *S) error {
		if l.err != nil {
			return l.err
		}
		if prev != nil {
			if err := prev(s); err != nil {
				return err
			}
		}
		halt := l.ctx.Err()
		if halt != nil {
			resilience.NoteDeadlineCancel()
		}
		if l.ro.enabled() && (halt != nil || cad.Due(iter(s))) {
			l.err = resilience.SaveCheckpoint(l.ro.CheckpointPath, l.kind, iter(s), s)
		}
		if halt != nil {
			return halt
		}
		return l.err
	}
}

// result assembles the outcome of a routine that started at start.
func (l *loop) result(d *Driver, start int64, res opt.Result) (Result, error) {
	mPhaseOptimize.Since(start)
	if l.err != nil {
		return Result{}, l.err
	}
	return Result{Energy: res.F, Params: res.X, Optimizer: res, Stats: d.Stats(),
		CacheStats: d.CacheStats(), Interrupted: res.Interrupted}, nil
}

// Minimize runs the classical optimization loop from x0 using Nelder–Mead
// (the derivative-free default suited to all three energy modes). When ctx
// ends, the best vertex so far comes back with Result.Interrupted set; ro
// adds checkpoint/restart (its zero value is the plain loop). An evaluation
// the backend fails ends the run with that error.
func (d *Driver) Minimize(ctx context.Context, x0 []float64, o opt.NelderMeadOptions, ro ResilienceOptions) (Result, error) {
	st := new(opt.NelderMeadState)
	if found, err := ro.loadResume(KindNelderMead, st); err != nil {
		return Result{}, err
	} else if found {
		o.Resume = st
	}
	l := &loop{ctx: ctx, eval: d.evaluate, kind: KindNelderMead, ro: ro}
	o.Observer = observer(l, o.Observer, func(s *opt.NelderMeadState) int { return s.Iter })
	start := telemetry.Now()
	return l.result(d, start, opt.NelderMead(l.objective, x0, o))
}

// MinimizeLBFGS is the L-BFGS counterpart of Minimize. In process it uses
// adjoint analytic gradients, so the ansatz must have exponential structure
// (UCCSD or Adapt); with a Backend it takes central finite differences.
// Where Energy is forward, energy and gradient are one pass over the
// ansatz: the objective leaves φ and H·φ behind and the gradient L-BFGS
// asks for next, at the same θ, only sweeps backward from them.
func (d *Driver) MinimizeLBFGS(ctx context.Context, x0 []float64, o opt.LBFGSOptions, ro ResilienceOptions) (Result, error) {
	if d.opts.Backend != nil {
		return d.lbfgs(ctx, d.evaluate, nil, x0, o, ro)
	}
	if d.exp == nil {
		return Result{}, fmt.Errorf("%w: ansatz does not expose exponential structure", core.ErrInvalidArgument)
	}
	grad := func(x, g []float64) {
		defer mPhaseGradient.Since(telemetry.Now())
		d.adjointGradient(x, g)
	}
	return d.lbfgs(ctx, d.evaluate, grad, x0, o, ro)
}

// lbfgs runs L-BFGS on eval; a nil grad means central finite differences.
func (d *Driver) lbfgs(ctx context.Context, eval energyFunc, grad opt.Gradient, x0 []float64, o opt.LBFGSOptions, ro ResilienceOptions) (Result, error) {
	st := new(opt.LBFGSState)
	if found, err := ro.loadResume(KindLBFGS, st); err != nil {
		return Result{}, err
	} else if found {
		o.Resume = st
	}
	l := &loop{ctx: ctx, eval: eval, kind: KindLBFGS, ro: ro}
	o.Observer = observer(l, o.Observer, func(s *opt.LBFGSState) int { return s.Iter })
	start := telemetry.Now()
	return l.result(d, start, opt.LBFGS(l.objective, grad, x0, o))
}

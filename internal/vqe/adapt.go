package vqe

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ansatz"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// AdaptOptions configures the Adapt-VQE outer loop (paper §5.3).
type AdaptOptions struct {
	// MaxIterations bounds the number of operator additions (default 30).
	MaxIterations int
	// GradientTol stops when the largest pool gradient falls below it
	// (default 1e-4).
	GradientTol float64
	// EnergyTol stops when the energy error vs Reference (if set) falls
	// below it; the paper uses 1 milli-hartree chemical accuracy.
	EnergyTol float64
	// Reference is the exact target energy (FCI); NaN disables the
	// energy-based stop.
	Reference float64
	// Workers for simulation.
	Workers int
	// Pool shares one persistent worker pool across the pool-scan
	// simulator and every inner driver (see vqe.Options.Pool).
	Pool *state.Pool
	// Inner optimizer budget per iteration.
	LBFGS opt.LBFGSOptions
	// Observer is called after every completed outer iteration with the
	// recorded step — the progress hook job servers stream per-iteration
	// energies from. A non-nil return halts growth at that (completed)
	// iteration with Interrupted set.
	Observer func(AdaptIteration) error
}

// AdaptIteration records one outer-loop step for the convergence plot.
type AdaptIteration struct {
	Iteration    int
	Operator     string  // label of the operator added
	MaxGradient  float64 // selection gradient magnitude
	Energy       float64 // optimized energy after adding it
	ErrorVsRef   float64 // |Energy − Reference| (NaN if no reference)
	Parameters   int
	CircuitDepth int
	GateCount    int
}

// AdaptResult is the full Adapt-VQE outcome.
type AdaptResult struct {
	Energy    float64
	Params    []float64
	Ansatz    *ansatz.AdaptAnsatz
	History   []AdaptIteration
	Converged bool
	// Interrupted is set when the outer loop stopped on a deadline; the
	// result then reflects the last completed iteration (and, with
	// checkpointing on, matches the snapshot on disk).
	Interrupted bool
	// TotalStats accumulates simulator accounting across every inner
	// optimization (the cumulative cost the paper's caching/fusion
	// optimizations target).
	TotalStats Stats
}

// Adapt runs Adapt-VQE: repeatedly pick the pool operator with the largest
// energy gradient, append it to the ansatz, and re-optimize all
// parameters. Ref: Grimsley et al. (paper refs [4, 16, 17]).
func Adapt(h *pauli.Op, pool *ansatz.Pool, n, ne int, o AdaptOptions) (*AdaptResult, error) {
	return AdaptContext(context.Background(), h, pool, n, ne, o, ResilienceOptions{})
}

// AdaptContext is Adapt with deadline-aware cancellation and outer-loop
// checkpointing. The checkpoint unit is one completed outer iteration
// (pool selection + inner re-optimization): interrupting mid-iteration
// discards only that iteration's partial work, and resuming replays the
// recorded operator selections through ansatz.Grow before continuing.
// Operator selection depends only on the restored parameters, so the
// resumed run follows the identical growth trajectory.
func AdaptContext(ctx context.Context, h *pauli.Op, pool *ansatz.Pool, n, ne int, o AdaptOptions, ro ResilienceOptions) (*AdaptResult, error) {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 30
	}
	if o.GradientTol <= 0 {
		o.GradientTol = 1e-4
	}
	adapt := ansatz.NewAdaptAnsatz(n, ne)
	params := []float64{}
	result := &AdaptResult{Ansatz: adapt}
	var selected []int
	startIter := 1

	st := new(AdaptState)
	if found, err := ro.loadResume(KindAdapt, st); err != nil {
		return nil, err
	} else if found {
		for _, k := range st.Selected {
			if k < 0 || k >= len(pool.Ops) {
				return nil, fmt.Errorf("%w: checkpointed operator index %d outside pool of %d", core.ErrInvalidArgument, k, len(pool.Ops))
			}
			adapt.Grow(pool.Ops[k])
		}
		selected = st.Selected
		params = st.Params
		result.Energy = st.Energy
		result.Params = params
		result.History = historyFromJSON(st.History)
		startIter = st.Iter + 1
	}
	cad := resilience.Cadence{Interval: ro.CheckpointEvery}
	save := func(iter int) error {
		return resilience.SaveCheckpoint(ro.CheckpointPath, KindAdapt, iter, &AdaptState{
			Selected: selected,
			Params:   params,
			Energy:   result.Energy,
			Iter:     iter,
			History:  historyToJSON(result.History),
		})
	}

	// H is compiled once, for every scan and every inner driver, and so is
	// the block H and the pool confine the state to: the scans run there,
	// and every inner driver on a view of it, on one worker pool.
	plan := pauli.NewPlan(h)
	scan, err := compileSubspace(adapt.Reference(), plan, pool.Ops, o.Workers, o.Pool)
	if err != nil {
		return nil, err
	}
	if o.Pool == nil && scan.pool != nil {
		defer scan.pool.Close() // started above, for this solve alone
	}
	phi, hPhi := make([]complex128, scan.h.Dim()), make([]complex128, scan.h.Dim())
	// observerHalted distinguishes a deliberate post-iteration halt (the
	// iteration completed; checkpoint covers it) from a deadline hit
	// mid-iteration (partial work unwound; checkpoint excludes it).
	observerHalted := false
	for iter := startIter; iter <= o.MaxIterations; iter++ {
		if ctx.Err() != nil {
			result.Interrupted = true
			resilience.NoteDeadlineCancel()
			if ro.enabled() {
				if err := save(iter - 1); err != nil {
					return result, err
				}
			}
			return result, nil
		}
		done, err := func() (bool, error) {
			// Deferred so every exit — convergence, inner-optimizer error,
			// or a full iteration — observes the timer.
			defer mAdaptIter.Since(telemetry.Now())
			// Prepare current optimal state and scan the pool.
			scan.with(selected).prepare(phi, params)
			grads := scan.poolGradients(phi, hPhi)
			best, bestAbs := -1, 0.0
			for k, g := range grads {
				if a := math.Abs(g); a > bestAbs {
					best, bestAbs = k, a
				}
			}
			if best < 0 || bestAbs < o.GradientTol {
				result.Converged = true
				return true, nil
			}
			adapt.Grow(pool.Ops[best])
			selected = append(selected, best)
			params = append(params, 0)

			drv, err := newDriver(h, plan, scan.with(selected), adapt, Options{Mode: Direct, Workers: o.Workers, Pool: scan.pool})
			if err != nil {
				return false, err
			}
			res, err := drv.MinimizeLBFGS(ctx, params, o.LBFGS, ResilienceOptions{})
			if err != nil {
				return false, err
			}
			if res.Interrupted {
				// Deadline hit mid-inner-optimization: unwind the partial
				// iteration so the checkpoint covers only completed work.
				adapt.Selected = adapt.Selected[:len(adapt.Selected)-1]
				selected = selected[:len(selected)-1]
				params = params[:len(params)-1]
				result.Interrupted = true
				return true, nil
			}
			params = res.Params
			result.Energy = res.Energy
			result.Params = params
			result.TotalStats.EnergyEvaluations += res.Stats.EnergyEvaluations
			result.TotalStats.AnsatzExecutions += res.Stats.AnsatzExecutions
			result.TotalStats.GatesApplied += res.Stats.GatesApplied
			result.TotalStats.CacheRestores += res.Stats.CacheRestores

			c := adapt.Circuit(params)
			st := c.Stats()
			entry := AdaptIteration{
				Iteration:    iter,
				Operator:     pool.Ops[best].Label,
				MaxGradient:  bestAbs,
				Energy:       res.Energy,
				ErrorVsRef:   math.NaN(),
				Parameters:   len(params),
				CircuitDepth: st.Depth,
				GateCount:    st.Total,
			}
			if !math.IsNaN(o.Reference) {
				entry.ErrorVsRef = math.Abs(res.Energy - o.Reference)
			}
			result.History = append(result.History, entry)

			if o.Observer != nil {
				if obsErr := o.Observer(entry); obsErr != nil {
					result.Interrupted = true
					observerHalted = true
					return true, nil
				}
			}
			if o.EnergyTol > 0 && !math.IsNaN(o.Reference) && entry.ErrorVsRef < o.EnergyTol {
				result.Converged = true
				return true, nil
			}
			return false, nil
		}()
		if err != nil {
			return nil, err
		}
		if ro.enabled() && (done || result.Interrupted || cad.Due(iter)) {
			completed := iter
			if result.Interrupted && !observerHalted {
				completed = iter - 1
			}
			if err := save(completed); err != nil {
				return result, err
			}
		}
		if done {
			break
		}
	}
	return result, nil
}

// Package vqe implements the variational-quantum-eigensolver workflow the
// paper builds around NWQ-Sim: energy evaluation in three modes (direct
// expectation, basis-rotated exact readout, and shot sampling), the
// post-ansatz state cache (§4.1), gate-cost accounting for the
// caching/non-caching comparison (Figure 3), adjoint analytic gradients,
// and the Adapt-VQE outer loop (Figure 5).
package vqe

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ansatz"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// EnergyMode selects how ⟨H⟩ is evaluated per parameter set.
type EnergyMode int

const (
	// Direct computes the exact expectation from the cached state
	// amplitudes with no measurement circuits (paper §4.2).
	Direct EnergyMode = iota
	// Rotated computes exact expectations through per-group basis-rotation
	// circuits (what caching accelerates, §4.1).
	Rotated
	// Sampled estimates expectations from shot counts (the traditional
	// workflow the paper contrasts against, §4.2.1).
	Sampled
)

// String implements fmt.Stringer.
func (m EnergyMode) String() string {
	switch m {
	case Direct:
		return "direct"
	case Rotated:
		return "rotated"
	case Sampled:
		return "sampled"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Backend evaluates ⟨prep|obs|prep⟩ somewhere other than the driver's own
// state vector — a simulated cluster, a density matrix, a fallback chain.
// The driver owns the loop around it; runspec's backend table builds one
// for every backend a spec may name.
type Backend interface {
	Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error)
}

// Options configures a VQE driver.
type Options struct {
	Mode EnergyMode
	// Backend, when set, is asked for ⟨H⟩ by EnergyContext and the
	// Minimize loops in place of the in-process state vector (Direct mode
	// only). L-BFGS then differentiates numerically: adjoints need amplitudes.
	Backend Backend
	// Shots per measurement group in Sampled mode (default 8192).
	Shots int
	// Caching enables the post-ansatz state cache in Rotated and Sampled
	// mode: the ansatz is executed once per parameter set and restored (not
	// re-prepared) for every measurement basis.
	Caching bool
	// DeviceCapacityBytes bounds the simulated device tier of the cache
	// (0 = unlimited; spills go to the host tier, §4.1.4).
	DeviceCapacityBytes uint64
	// Workers for parallel gate application and expectation reduction.
	Workers int
	// Pool shares one persistent worker pool across every state the
	// driver creates (simulator, scratch, cache restores). A job
	// scheduler running many drivers concurrently injects its bounded
	// pool here so goroutine count is fixed per process, not per job;
	// nil keeps the per-driver pool behavior. Overrides Workers with the
	// pool's width.
	Pool *state.Pool
	// Transpile executes circuit (hardware-efficient) ansätze through the
	// fused executor, in every mode; a no-op for exponential ones (UCCSD,
	// Adapt), which run as one sweep per generator.
	Transpile bool
	// PerTermMeasurement disables qubit-wise-commuting grouping and
	// measures every Hamiltonian term in its own basis — the workflow the
	// paper describes and the Figure 3 cost model assumes. Grouping
	// (default) needs fewer rotations.
	PerTermMeasurement bool
	// Seed for sampling.
	Seed uint64
}

// Stats accumulates execution accounting across energy evaluations. Gate
// counts are actual applied-gate tallies from the simulator, the currency
// of the paper's Figures 3 and 4.
type Stats struct {
	EnergyEvaluations int
	AnsatzExecutions  int    // how many times U(θ) was run from |0…0⟩
	GatesApplied      uint64 // total gates the engine executed
	CacheRestores     int
}

// Driver evaluates and minimizes ⟨ψ(θ)|H|ψ(θ)⟩.
type Driver struct {
	H      *pauli.Op
	Ansatz ansatz.Ansatz
	opts   Options

	n int
	// sim and plan are the in-process engine, nil when a Backend is set;
	// sim is the 2ⁿ state a circuit ansatz runs on, or the one Rotated and
	// Sampled mode rotate and read.
	sim     *state.State
	scratch *state.State
	plan    *pauli.Plan // batched X-mask-grouped evaluation plan for H
	// sub is where an exponential ansatz runs in process, in every mode:
	// it is prepared in phi (the sweeps go straight into
	// stats.GatesApplied), and forward and adjointGradient never leave it.
	sub *subspace
	phi []complex128
	// exp is Ansatz when it has exponential structure, and ref its
	// reference circuit, built once: the in-process engine then prepares
	// it on the block, not through Ansatz.Circuit.
	exp Exponential
	ref *circuit.Circuit
	// lambda is H·φ for the φ forward left behind, valid while
	// lambdaValid and for the parameters lambdaAt: the hand-over from
	// an L-BFGS energy evaluation to the gradient that follows it.
	lambda      []complex128
	lambdaAt    []float64
	lambdaValid bool
	// groups are the measurement bases of Rotated and Sampled mode, and
	// readouts each group's diagonal plan, read on the rotated scratch
	// state (Rotated) or on counts sampled from it (Sampled).
	groups   []pauli.MeasurementBasis
	readouts []*pauli.Plan
	cache    *state.Cache
	stats    Stats
}

// New builds a driver for observable h over the given ansatz.
func New(h *pauli.Op, a ansatz.Ansatz, opts Options) (*Driver, error) {
	return newDriver(h, nil, nil, a, opts)
}

// NewWithPlan is New for a caller that has already compiled h's plan
// (pauli.NewPlan(h)), as runspec does once per job: the driver evaluates
// that plan instead of compiling its own.
func NewWithPlan(h *pauli.Op, plan *pauli.Plan, a ansatz.Ansatz, opts Options) (*Driver, error) {
	return newDriver(h, plan, nil, a, opts)
}

// newDriver is New with h's evaluation plan, and for an exponential ansatz
// its block, supplied by a caller that already compiled them (Adapt, once
// per solve, not once per inner driver); a nil plan is compiled here, and
// so is a nil block for an exponential ansatz. Adapt passes no h: its
// drivers run Direct in process, where only the plan is read.
func newDriver(h *pauli.Op, plan *pauli.Plan, sub *subspace, a ansatz.Ansatz, opts Options) (*Driver, error) {
	n := a.NumQubits()
	if h != nil && h.MaxQubit() >= n {
		return nil, core.QubitError(h.MaxQubit(), n)
	}
	if opts.Backend != nil && opts.Mode != Direct {
		return nil, fmt.Errorf("%w: vqe: a backend serves mode direct only (got %v)", core.ErrInvalidArgument, opts.Mode)
	}
	if opts.Shots <= 0 {
		opts.Shots = 8192
	}
	d := &Driver{
		H:      h,
		Ansatz: a,
		opts:   opts,
		n:      n,
		cache:  state.NewCache(opts.DeviceCapacityBytes),
	}
	if opts.Backend == nil {
		if exp, ok := a.(Exponential); ok {
			d.exp, d.ref = exp, exp.Reference()
		}
		if plan == nil {
			plan = pauli.NewPlan(h)
		}
		if d.exp != nil && sub == nil {
			var err error
			if sub, err = compileSubspace(d.ref, plan, d.exp.Operators(), opts.Workers, opts.Pool); err != nil {
				return nil, err
			}
		}
		d.plan, d.sub = plan, sub
		if sub != nil {
			d.phi = make([]complex128, sub.h.Dim())
			if opts.Pool == nil {
				d.opts.Pool = sub.pool // the 2ⁿ states below share it
			}
		}
		if d.exp == nil || opts.Mode != Direct {
			d.sim = state.New(n, state.Options{Workers: d.opts.Workers, Seed: d.opts.Seed, Pool: d.opts.Pool})
		}
	}
	if opts.Mode != Direct {
		if opts.PerTermMeasurement {
			d.groups = perTermBases(h, n)
		} else {
			d.groups = pauli.GroupQWC(h, n)
		}
		d.readouts = make([]*pauli.Plan, len(d.groups))
		for i := range d.groups {
			d.readouts[i] = d.groups[i].Plan()
		}
	}
	return d, nil
}

// perTermBases builds one measurement basis per non-identity term.
func perTermBases(h *pauli.Op, n int) []pauli.MeasurementBasis {
	var out []pauli.MeasurementBasis
	for _, t := range h.Terms() {
		if t.P.IsIdentity() {
			continue
		}
		out = append(out, pauli.MeasurementBasis{
			Rotation: pauli.BasisRotation(t.P, n),
			ZMasks:   []uint64{t.P.X | t.P.Z},
			Terms:    []pauli.Term{t},
		})
	}
	return out
}

// NumMeasurementBases reports how many distinct measurement circuits one
// energy evaluation uses (terms in per-term mode, QWC groups otherwise).
func (d *Driver) NumMeasurementBases() int { return len(d.groups) }

// Stats returns a copy of the accounting counters.
func (d *Driver) Stats() Stats {
	s := d.stats
	if d.sim != nil {
		s.GatesApplied += d.sim.GatesApplied()
	}
	if d.scratch != nil {
		s.GatesApplied += d.scratch.GatesApplied()
	}
	return s
}

// CacheStats exposes the post-ansatz cache counters.
func (d *Driver) CacheStats() state.CacheStats { return d.cache.Stats() }

// prepareAnsatz runs U(θ) from |0…0⟩ on s (the simulator, or the scratch
// state the uncached measurement walk re-prepares for every basis). An
// exponential ansatz is prepared in the block — d.phi, counted as the
// reference circuit's gates plus one sweep per generator group — and then
// scattered into s by basis state; forward, which reads only the block,
// passes a nil s. It has no gates to fuse, so Transpile only bears on
// circuit-shaped ansätze.
func (d *Driver) prepareAnsatz(s *state.State, params []float64) {
	start := telemetry.Now()
	d.lambdaValid = false
	switch {
	case d.exp != nil:
		if len(params) != len(d.sub.ops) {
			panic(core.ErrDimensionMismatch)
		}
		d.stats.GatesApplied += uint64(d.ref.GateCount() + d.sub.prepare(d.phi, params))
		if s != nil {
			d.sub.space.Scatter(s.Amplitudes(), d.phi)
		}
	case d.opts.Transpile:
		// Fused kernel path: compile through the transpiler and execute
		// one fused sweep per segment.
		s.ResetZero()
		s.RunOptimized(d.Ansatz.Circuit(params))
	default:
		s.ResetZero()
		s.Run(d.Ansatz.Circuit(params))
	}
	d.stats.AnsatzExecutions++
	mPhasePrepare.Since(start)
}

// Exponential is an ansatz of the form U(θ) = ∏ₖ exp(θₖ·Aₖ)·|ref⟩ whose
// structure the in-process driver executes directly — one pair sweep per
// generator group, in the block the reference basis state reaches — and
// differentiates by the adjoint method. UCCSD and the Adapt ansatz satisfy
// it; ref must be X gates alone.
type Exponential interface {
	ansatz.Ansatz
	Reference() *circuit.Circuit
	Operators() []ansatz.Excitation
}

// Energy evaluates ⟨H⟩ at params on the driver's own state vector: the
// one in-process route of the driver's mode and ansatz kind, whichever
// optimizer or caller asks. It has no context or error for a Backend; a
// driver built with one answers EnergyContext.
func (d *Driver) Energy(params []float64) float64 {
	if d.opts.Backend != nil {
		panic(fmt.Errorf("%w: vqe: Energy cannot report a backend failure; call EnergyContext", core.ErrInvalidArgument))
	}
	d.stats.EnergyEvaluations++
	start := telemetry.Now()
	var e float64
	switch d.opts.Mode {
	case Direct:
		if d.exp != nil {
			// E = Re⟨φ|Hφ⟩, leaving φ and H·φ for a gradient at the same θ.
			e = d.forward(params)
		} else {
			// One circuit execution; expectation read directly from the
			// amplitudes through the batched engine (the X-mask grouping is
			// built once per driver, amortized over every evaluation).
			d.prepareAnsatz(d.sim, params)
			readStart := telemetry.Now()
			e = d.plan.Evaluate(d.sim, pauli.ExpectationOptions{Workers: d.opts.Workers})
			mPhaseExpect.Since(readStart)
		}
	case Rotated, Sampled:
		e = d.energyViaGroups(params)
	default:
		panic(fmt.Errorf("%w: unknown energy mode %v", core.ErrInvalidArgument, d.opts.Mode))
	}
	if start != 0 {
		elapsed := time.Now().UnixNano() - start
		mEnergyEval.Observe(elapsed)
		mEnergyRecent.Observe(float64(elapsed))
	}
	return e
}

// EnergyContext evaluates ⟨H⟩ under a context, on Options.Backend when one
// is set: a canceled or expired context is honored before the (potentially
// expensive) evaluation runs, and a backend failure comes back wrapped.
func (d *Driver) EnergyContext(ctx context.Context, params []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return d.evaluate(ctx, params)
}

// evaluate is one objective evaluation of the Minimize loops. The
// in-process engine cannot fail and ignores ctx (the loops observe
// cancellation between iterations, where the optimizer state is whole); a
// backend is handed ctx so a walltime reaches into it.
func (d *Driver) evaluate(ctx context.Context, params []float64) (float64, error) {
	if d.opts.Backend == nil {
		return d.Energy(params), nil
	}
	d.stats.EnergyEvaluations++
	e, err := d.opts.Backend.Expectation(ctx, d.Ansatz.Circuit(params), d.H)
	if err != nil {
		return 0, fmt.Errorf("vqe: backend expectation: %w", err)
	}
	return e, nil
}

// energyViaGroups is the measurement walk of Rotated and Sampled mode: for
// every group, re-prepare or restore the post-ansatz state, rotate into the
// group's basis, and read the group's diagonal plan — on the rotated
// amplitudes (Rotated) or on Shots outcomes sampled from them (Sampled).
func (d *Driver) energyViaGroups(params []float64) float64 {
	if d.scratch == nil {
		d.scratch = state.New(d.n, state.Options{Workers: d.opts.Workers, Seed: d.opts.Seed + 1, Pool: d.opts.Pool})
	}
	if d.opts.Caching {
		d.prepareAnsatz(d.sim, params)
		d.cache.Put(d.sim)
	}
	total := real(d.H.Coeff(pauli.Identity))
	for i, mb := range d.groups {
		if d.opts.Caching {
			restoreStart := telemetry.Now()
			if _, ok := d.cache.Restore(d.scratch); !ok {
				panic("vqe: cache lost the post-ansatz state")
			}
			d.stats.CacheRestores++
			mPhaseRestore.Since(restoreStart)
		} else {
			// Traditional workflow: re-prepare the ansatz for every basis.
			d.prepareAnsatz(d.scratch, params)
		}
		readStart := telemetry.Now()
		d.scratch.Run(mb.Rotation)
		if d.opts.Mode == Rotated {
			total += d.readouts[i].Evaluate(d.scratch, pauli.ExpectationOptions{Workers: d.opts.Workers})
		} else {
			total += d.readouts[i].EvaluateCounts(d.scratch.SampleCounts(d.opts.Shots))
		}
		mPhaseExpect.Since(readStart)
	}
	return total
}

// Result reports a VQE minimization.
type Result struct {
	Energy     float64
	Params     []float64
	Optimizer  opt.Result
	Stats      Stats
	CacheStats state.CacheStats
	// Interrupted is set when the loop was halted early (deadline or
	// observer); Energy/Params then hold the best point so far.
	Interrupted bool
}

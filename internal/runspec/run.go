package runspec

// The execution engine behind a RunSpec: every entry point that used to
// hand-wire molecule → observable → ansatz → optimizer (the vqesim
// facade, cmd/vqe, and now the vqed daemon) funnels through Run, so a
// spec computes the same answer no matter which door it came in.

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/qpe"
	"repro/internal/resilience"
	"repro/internal/state"
	"repro/internal/vqe"
)

// Progress is one per-iteration notification delivered to
// RunOptions.OnProgress — what the daemon streams over SSE as the energy
// trace.
type Progress struct {
	// Phase: "vqe", "adapt", or "qpe".
	Phase string `json:"phase"`
	// Iteration is the optimizer (or Adapt outer-loop) iteration.
	Iteration int `json:"iteration"`
	// Energy is the best energy found so far.
	Energy float64 `json:"energy"`
	// Operator is the Adapt operator added this iteration.
	Operator string `json:"operator,omitempty"`
}

// RunOptions carries the per-invocation machinery that is not part of the
// spec: the scheduler's shared simulation pool, a checkpoint-path
// override, and the progress sink.
type RunOptions struct {
	// Pool shares one bounded worker pool across concurrent runs (the
	// daemon's scheduler); nil lets each run size its own.
	Pool *state.Pool
	// CheckpointPath overrides spec.Resilience.CheckpointPath (the daemon
	// assigns each job a spool path). Checkpointing is honored by vqe on
	// every backend and by adapt; qpe has no loop to snapshot.
	CheckpointPath string
	// CheckpointGap floors the wall time between periodic snapshots of a
	// spec that leaves resilience.checkpoint_every at 0 (the daemon's
	// served cadence); a spec that names a cadence gets exactly that one.
	// A halt still writes its snapshot.
	CheckpointGap time.Duration
	// OnProgress, when set, receives one Progress per iteration. Called
	// from the run's goroutine; keep it fast.
	OnProgress func(Progress)
	// InitialParams seeds the variational parameter vector (sweep warm
	// starting). It is used only when its length matches the ansatz and
	// the run is not resuming from a checkpoint; qpe and adapt ignore it.
	// Warm starting changes the optimizer trajectory, not the minimum a
	// converged run reports.
	InitialParams []float64
	// Shared caches molecule/observable/FCI construction across the
	// points of a sweep family. Only meaningful on the Run entry point
	// (RunOnMolecule bypasses spec-derived construction); nil builds
	// everything per run.
	Shared *BuildCache
}

// AdaptStep is the JSON-facing mirror of one Adapt-VQE outer iteration.
type AdaptStep struct {
	Iteration    int     `json:"iteration"`
	Operator     string  `json:"operator"`
	MaxGradient  float64 `json:"max_gradient"`
	Energy       float64 `json:"energy"`
	ErrorVsExact float64 `json:"error_vs_exact"`
	Parameters   int     `json:"parameters"`
	CircuitDepth int     `json:"circuit_depth"`
	GateCount    int     `json:"gate_count"`
}

// QPEOutcome carries the phase-estimation-specific result fields.
type QPEOutcome struct {
	Resolution float64 `json:"resolution"`
	Confidence float64 `json:"confidence"`
}

// Result is the serializable outcome of one RunSpec execution.
type Result struct {
	SpecHash  string `json:"spec_hash"`
	Algorithm string `json:"algorithm"`
	Molecule  string `json:"molecule"`
	NumQubits int    `json:"num_qubits"`
	NumTerms  int    `json:"num_terms"`
	// HartreeFock and Exact are the mean-field and FCI references.
	HartreeFock  float64 `json:"hartree_fock"`
	Exact        float64 `json:"exact"`
	Energy       float64 `json:"energy"`
	ErrorVsExact float64 `json:"error_vs_exact"`
	// Params is the optimized parameter vector (vqe/adapt).
	Params    []float64 `json:"params,omitempty"`
	Converged bool      `json:"converged"`
	// Interrupted marks a run halted by deadline or cancellation; Energy
	// then holds the best point reached, and — when checkpointing was on
	// — the snapshot on disk resumes the exact trajectory.
	Interrupted bool `json:"interrupted"`
	// CheckpointPath is the snapshot file the run left on disk; empty
	// when checkpointing was off or no snapshot was written.
	CheckpointPath    string `json:"checkpoint_path,omitempty"`
	EnergyEvaluations int    `json:"energy_evaluations,omitempty"`
	AnsatzExecutions  int    `json:"ansatz_executions,omitempty"`
	GatesApplied      uint64 `json:"gates_applied,omitempty"`
	// History is the Adapt-VQE growth trace.
	History []AdaptStep `json:"history,omitempty"`
	// QPE is set for phase-estimation runs.
	QPE *QPEOutcome `json:"qpe,omitempty"`
	// WallNs is the run's wall-clock time in nanoseconds.
	WallNs int64 `json:"wall_ns"`
}

// BuildMolecule materializes the molecular model a spec names.
func BuildMolecule(ms MoleculeSpec) (*chem.MolecularData, error) {
	spec := RunSpec{Molecule: ms}
	spec.ApplyDefaults()
	ms = spec.Molecule
	switch ms.Kind {
	case "h2":
		return chem.H2(), nil
	case "h2-distance":
		return chem.H2AtDistance(ms.Distance)
	case "water":
		return chem.WaterLike(), nil
	case "hubbard":
		return chem.Hubbard(ms.Sites, ms.Hopping, ms.Repulsion, ms.Electrons), nil
	case "synthetic":
		return chem.Synthetic(chem.SyntheticOptions{
			NumOrbitals: ms.Orbitals, NumElectrons: ms.Electrons, Seed: ms.Seed}), nil
	}
	return nil, fmt.Errorf("%w: runspec: unknown molecule kind %q", core.ErrInvalidArgument, ms.Kind)
}

// BuildObservable maps a molecule to its qubit Hamiltonian under the
// spec's fermion-to-qubit encoding.
func BuildObservable(m *chem.MolecularData, encoding string) (*pauli.Op, error) {
	switch encoding {
	case "", "jw":
		return chem.QubitHamiltonian(m), nil
	case "bk", "parity":
		enc, err := encodingFor(encoding, m.NumSpinOrbitals())
		if err != nil {
			return nil, err
		}
		return encodeHermitian(enc, chem.FermionicHamiltonian(m))
	}
	return nil, fmt.Errorf("%w: runspec: unknown encoding %q", core.ErrInvalidArgument, encoding)
}

// encodeHermitian maps a fermionic Hamiltonian under an explicit encoding
// and keeps its Hermitian part.
func encodeHermitian(enc *fermion.Encoding, h *fermion.Op) (*pauli.Op, error) {
	q, err := enc.Transform(h)
	if err != nil {
		return nil, err
	}
	return q.HermitianPart(), nil
}

// encodingFor returns nil for JW (the ansatz default) or the explicit
// encoding object otherwise.
func encodingFor(name string, n int) (*fermion.Encoding, error) {
	switch name {
	case "", "jw":
		return nil, nil
	case "bk":
		return fermion.BravyiKitaevEncoding(n)
	case "parity":
		return fermion.ParityEncoding(n)
	}
	return nil, fmt.Errorf("%w: runspec: unknown encoding %q", core.ErrInvalidArgument, name)
}

// Run validates and executes a spec: molecule construction, observable
// mapping, optional downfolding, then the selected algorithm on the
// selected backend. The context bounds the whole run; a spec walltime is
// layered on top of it.
func Run(ctx context.Context, spec *RunSpec, opts RunOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := *spec
	c.ApplyDefaults()
	m, err := opts.Shared.molecule(c.Molecule)
	if err != nil {
		return nil, err
	}
	return run(ctx, m, &c, opts)
}

// RunOnMolecule executes a spec's algorithm sections against an
// already-built molecule — the entry point for callers holding an
// arbitrary MolecularData value, which has no declarative spec (the
// vqesim facade re-exports it). The molecule section of
// the spec is ignored; the result's SpecHash is empty because the run is
// not content-addressable.
func RunOnMolecule(ctx context.Context, m *chem.MolecularData, spec *RunSpec, opts RunOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := *spec
	c.ApplyDefaults()
	// The cache keys on the spec's molecule section, which this entry
	// point ignores — sharing here would alias unrelated molecules.
	opts.Shared = nil
	res, err := run(ctx, m, &c, opts)
	if err != nil {
		return nil, err
	}
	res.SpecHash = ""
	return res, nil
}

// run executes a defaulted spec on a built molecule.
func run(ctx context.Context, m *chem.MolecularData, c *RunSpec, opts RunOptions) (*Result, error) {
	started := time.Now()
	// Setup-phase heartbeats: observable mapping and the FCI reference can
	// take long enough on large systems that a silent gap would look like
	// a hang to the daemon's no-progress watchdog. Emit liveness before
	// the first optimizer iteration ever fires.
	setupBeat := func(step int) {
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Phase: "setup", Iteration: step})
		}
	}
	setupBeat(0)
	if c.Resilience.Walltime != "" {
		budget, err := resilience.ParseWalltime(c.Resilience.Walltime)
		if err != nil {
			return nil, err
		}
		// Reserve a couple of seconds inside the budget for the final
		// checkpoint write.
		var cancel context.CancelFunc
		ctx, cancel = resilience.WithWalltime(ctx, budget, 2*time.Second)
		defer cancel()
	}
	ro := vqe.ResilienceOptions{
		CheckpointPath:  c.Resilience.CheckpointPath,
		CheckpointEvery: c.Resilience.CheckpointEvery,
		Resume:          c.Resilience.Resume,
	}
	if opts.CheckpointPath != "" {
		ro.CheckpointPath = opts.CheckpointPath
	}
	if c.Resilience.CheckpointEvery == 0 {
		ro.CheckpointGap = opts.CheckpointGap
	}

	obs, err := opts.Shared.observable(c.Molecule, m, c.Encoding, c.Downfold)
	if err != nil {
		return nil, err
	}
	setupBeat(1)
	h, n, ne := obs.h, obs.n, m.NumElectrons
	// H is built and compiled once per job. The FCI reference reads that
	// plan when it is m's full Jordan–Wigner operator; under another
	// encoding or a downfolded active space it compiles its own.
	jw := obs.plan
	if c.Encoding != "jw" || c.Downfold > 0 {
		jw = nil
	}
	fciEnergy, err := opts.Shared.fciEnergy(c.Molecule, m, jw)
	if err != nil {
		return nil, err
	}
	setupBeat(2)
	res := &Result{
		SpecHash:    c.Hash(),
		Algorithm:   c.Algorithm,
		Molecule:    m.Name,
		NumQubits:   n,
		NumTerms:    h.NumTerms(),
		HartreeFock: chem.HartreeFockEnergy(m),
		Exact:       fciEnergy,
	}

	switch c.Algorithm {
	case AlgorithmQPE:
		err = runQPE(ctx, c, h, n, ne, res)
	case AlgorithmAdapt:
		err = runAdapt(ctx, c, obs.plan, n, ne, fciEnergy, ro, opts, res)
	default:
		err = runVQE(ctx, c, h, obs.plan, n, ne, ro, opts, res)
	}
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(ro.CheckpointPath); err == nil {
		res.CheckpointPath = ro.CheckpointPath
	}
	res.ErrorVsExact = math.Abs(res.Energy - res.Exact)
	res.WallNs = time.Since(started).Nanoseconds()
	return res, nil
}

func runQPE(ctx context.Context, c *RunSpec, h *pauli.Op, n, ne int, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	prep := qpe.HartreeFockPrep(n, ne)
	out, err := qpe.Estimate(h, prep, n, qpe.Options{
		AncillaQubits: c.QPE.Ancillas,
		TrotterSteps:  c.QPE.TrotterSteps,
	})
	if err != nil {
		return err
	}
	res.Energy = out.Energy
	res.Converged = true
	res.QPE = &QPEOutcome{Resolution: out.Resolution, Confidence: out.Confidence}
	return nil
}

func runAdapt(ctx context.Context, c *RunSpec, plan *pauli.Plan, n, ne int, fciE float64, ro vqe.ResilienceOptions, opts RunOptions, res *Result) error {
	pool, err := ansatz.NewPool(n, ne)
	if err != nil {
		return err
	}
	ao := vqe.AdaptOptions{
		MaxIterations: c.Adapt.MaxIterations,
		GradientTol:   c.Adapt.GradientTol,
		Reference:     fciE,
		EnergyTol:     core.ChemicalAccuracy,
		Workers:       c.Backend.Workers,
		Pool:          opts.Pool,
	}
	if opts.OnProgress != nil {
		ao.Observer = func(it vqe.AdaptIteration) error {
			opts.OnProgress(Progress{Phase: AlgorithmAdapt, Iteration: it.Iteration,
				Energy: it.Energy, Operator: it.Operator})
			return nil
		}
	}
	out, err := vqe.AdaptContext(ctx, plan, pool, n, ne, ao, ro)
	if err != nil {
		return err
	}
	res.Energy = out.Energy
	res.Params = out.Params
	res.Converged = out.Converged
	res.Interrupted = out.Interrupted
	res.EnergyEvaluations = out.TotalStats.EnergyEvaluations
	res.AnsatzExecutions = out.TotalStats.AnsatzExecutions
	res.GatesApplied = out.TotalStats.GatesApplied
	res.History = make([]AdaptStep, len(out.History))
	for i, it := range out.History {
		res.History[i] = AdaptStep{
			Iteration: it.Iteration, Operator: it.Operator,
			MaxGradient: it.MaxGradient, Energy: it.Energy,
			ErrorVsExact: it.ErrorVsRef, Parameters: it.Parameters,
			CircuitDepth: it.CircuitDepth, GateCount: it.GateCount,
		}
	}
	return nil
}

// energyModes maps the validated spec mode onto the driver's.
var energyModes = map[string]vqe.EnergyMode{"direct": vqe.Direct, "rotated": vqe.Rotated, "sampled": vqe.Sampled}

// runVQE runs fixed-ansatz VQE through the one driver loop; the backend
// section only decides where that loop gets ⟨H⟩ from.
func runVQE(ctx context.Context, c *RunSpec, h *pauli.Op, plan *pauli.Plan, n, ne int, ro vqe.ResilienceOptions, opts RunOptions, res *Result) error {
	a, err := buildAnsatz(c, n, ne)
	if err != nil {
		return err
	}
	backend, err := c.Backend.backend(n)
	if err != nil {
		return err
	}
	mode := energyModes[c.Mode]
	drv, err := vqe.NewWithPlan(h, plan, a, vqe.Options{
		Mode:      mode,
		Shots:     c.Shots,
		Caching:   !c.DisableCaching && mode != vqe.Direct,
		Workers:   c.Backend.Workers,
		Transpile: c.Fusion,
		Pool:      opts.Pool,
		Backend:   backend,
	})
	if err != nil {
		return err
	}
	x0 := make([]float64, a.NumParameters())
	if len(opts.InitialParams) == len(x0) && !(ro.Resume && ro.CheckpointPath != "") {
		// Warm start: seed from a neighboring sweep point's converged θ.
		// A checkpoint resume carries its own optimizer state and wins.
		copy(x0, opts.InitialParams)
	}
	progress := func(iter int, energy float64) {
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Phase: AlgorithmVQE, Iteration: iter, Energy: energy})
		}
	}
	var out vqe.Result
	switch c.Optimizer.Method {
	case "nelder-mead":
		o := opt.NelderMeadOptions{MaxIter: c.Optimizer.MaxIter}
		if o.MaxIter == 0 {
			o.MaxIter = 5000
		}
		o.Observer = func(st *opt.NelderMeadState) error {
			_, f := st.Best()
			progress(st.Iter, f)
			return nil
		}
		out, err = drv.Minimize(ctx, x0, o, ro)
	default: // lbfgs (validated)
		o := opt.LBFGSOptions{MaxIter: c.Optimizer.MaxIter}
		o.Observer = func(st *opt.LBFGSState) error {
			progress(st.Iter, st.F)
			return nil
		}
		out, err = drv.MinimizeLBFGS(ctx, x0, o, ro)
	}
	if err != nil {
		return err
	}
	res.Energy = out.Energy
	res.Params = out.Params
	res.Converged = out.Optimizer.Converged
	res.Interrupted = out.Interrupted
	res.EnergyEvaluations = out.Stats.EnergyEvaluations
	res.AnsatzExecutions = out.Stats.AnsatzExecutions
	res.GatesApplied = out.Stats.GatesApplied
	return nil
}

func buildAnsatz(c *RunSpec, n, ne int) (ansatz.Ansatz, error) {
	switch c.Ansatz.Kind {
	case "uccsd":
		enc, err := encodingFor(c.Encoding, n)
		if err != nil {
			return nil, err
		}
		return ansatz.NewUCCSDWithEncoding(n, ne, enc)
	case "hea":
		return ansatz.NewHardwareEfficient(n, c.Ansatz.Layers, 0)
	}
	return nil, fmt.Errorf("%w: runspec: unknown ansatz %q", core.ErrInvalidArgument, c.Ansatz.Kind)
}

// Package vqesim is the public facade of the NWQ-Sim/VQE reproduction: an
// end-to-end workflow for simulating variational quantum eigensolver
// computations on classical hardware, following Wang et al., "Enabling
// Scalable VQE Simulation on Leading HPC Systems" (SC-W 2023).
//
// The pipeline mirrors the paper's Figure 2:
//
//	molecule → (coupled-cluster downfolding) → qubit observable
//	         → XACC-style compilation (ansatz + measurement bases)
//	         → NWQ-Sim simulation (caching, fusion, direct expectation)
//	         → classical optimization → ground-state energy
//
// Quick start:
//
//	res, err := vqesim.Run(ctx, &vqesim.RunSpec{}, vqesim.RunOptions{})
//	fmt.Println(res.Energy)   // ≈ −1.1373 Ha (H2 is the default molecule)
//
// The canonical way to describe a workload is a RunSpec — the same JSON
// document the vqe CLI assembles from flags and the vqed daemon accepts
// over HTTP. A caller holding an arbitrary *Molecule value runs the same
// spec against it with RunOnMolecule.
//
// The heavy lifting lives in the internal packages (state, circuit, pauli,
// fermion, chem, ansatz, vqe, qpe, cluster, density), and the API over them
// is runspec's: a spec names its backend from runspec's fixed table, whose
// rows plug into vqe's one optimizer loop. This package re-exports the
// types a downstream application needs and wires together the common
// workflows.
package vqesim

import (
	"context"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/noise"
	"repro/internal/pauli"
	"repro/internal/qpe"
	"repro/internal/runspec"
	"repro/internal/state"
	"repro/internal/vqe"
)

// The unified spec API: one serializable document describes molecule,
// encoding, algorithm, ansatz, evaluation mode, optimizer, backend, and
// resilience policy. See the runspec package for field documentation.
type (
	// RunSpec is the canonical description of one VQE workload.
	RunSpec = runspec.RunSpec
	// MoleculeSpec names a built-in molecular model.
	MoleculeSpec = runspec.MoleculeSpec
	// RunResult is the serializable outcome of executing a RunSpec.
	RunResult = runspec.Result
	// RunOptions carries per-invocation machinery (progress sink,
	// checkpoint override, shared pool).
	RunOptions = runspec.RunOptions
	// Progress is one per-iteration notification (the energy trace).
	Progress = runspec.Progress
	// SweepSpec describes a parameter-sweep job family: one base RunSpec
	// plus an axis expanded into content-addressed point specs.
	SweepSpec = runspec.SweepSpec
	// SweepAxis names the swept parameter and its values or range.
	SweepAxis = runspec.SweepAxis
	// SweepRunOptions configures the in-process family runner.
	SweepRunOptions = runspec.SweepRunOptions
	// SweepPointOutcome is one settled point of a family run.
	SweepPointOutcome = runspec.SweepPointOutcome
	// SweepResult is the aggregate outcome of RunSweep.
	SweepResult = runspec.SweepResult
)

// Sweep axis parameter names accepted by SweepAxis.Param.
const (
	AxisDistance  = runspec.AxisDistance
	AxisHopping   = runspec.AxisHopping
	AxisRepulsion = runspec.AxisRepulsion
	AxisLayers    = runspec.AxisLayers
	AxisDownfold  = runspec.AxisDownfold
)

// Run executes a spec end to end: molecule construction, qubit mapping,
// optional downfolding, then the selected algorithm on the selected
// backend. Zero values select the defaults (UCCSD VQE on H2, L-BFGS,
// direct expectation, in-process state-vector backend).
func Run(ctx context.Context, spec *RunSpec, opts RunOptions) (*RunResult, error) {
	return runspec.Run(ctx, spec, opts)
}

// RunOnMolecule executes a spec's algorithm sections against an
// already-built molecule (the spec's own molecule section is ignored).
func RunOnMolecule(ctx context.Context, m *Molecule, spec *RunSpec, opts RunOptions) (*RunResult, error) {
	return runspec.RunOnMolecule(ctx, m, spec, opts)
}

// RunSweep executes a parameter-sweep family in-process: points in
// ascending axis order, each warm-started from its nearest finished
// neighbor, with Hamiltonian construction shared across points (paper
// §6.2 incremental optimization). The vqed daemon accepts the same
// SweepSpec document at POST /v1/sweeps.
func RunSweep(ctx context.Context, ss *SweepSpec, opts SweepRunOptions) (*SweepResult, error) {
	return runspec.RunSweep(ctx, ss, opts)
}

// Re-exported core types. These aliases make the public API usable without
// importing internal packages directly.
type (
	// Circuit is the gate-list intermediate representation.
	Circuit = circuit.Circuit
	// Observable is a Pauli-sum operator (Hamiltonian).
	Observable = pauli.Op
	// Molecule bundles molecular integrals.
	Molecule = chem.MolecularData
	// State is the single-node state-vector simulator.
	State = state.State
	// UCCSD is the unitary coupled-cluster singles-doubles ansatz.
	UCCSD = ansatz.UCCSD
)

// ChemicalAccuracy is 1 milli-hartree.
const ChemicalAccuracy = core.ChemicalAccuracy

// Built-in molecular models.

// H2 returns the H2/STO-3G benchmark molecule (FCI ≈ −1.13727 Ha).
func H2() *Molecule { return chem.H2() }

// WaterLike returns the synthetic stand-in for the paper's downfolded
// 6-orbital H2O active space (12 qubits), the Figure 5 workload.
func WaterLike() *Molecule { return chem.WaterLike() }

// Hubbard returns a 1D Hubbard chain model.
func Hubbard(sites int, t, u float64, electrons int) *Molecule {
	return chem.Hubbard(sites, t, u, electrons)
}

// Synthetic returns a random-but-physically-shaped molecule.
func Synthetic(orbitals, electrons int, seed uint64) *Molecule {
	return chem.Synthetic(chem.SyntheticOptions{NumOrbitals: orbitals, NumElectrons: electrons, Seed: seed})
}

// Hamiltonian maps a molecule to its Jordan–Wigner qubit observable.
func Hamiltonian(m *Molecule) *Observable { return chem.QubitHamiltonian(m) }

// ExactGroundEnergy returns the FCI ground energy (the reference every
// simulated result is judged against).
func ExactGroundEnergy(m *Molecule) (float64, error) {
	res, err := chem.FCI(m)
	if err != nil {
		return 0, err
	}
	return res.Energy, nil
}

// HartreeFockEnergy returns the mean-field reference energy.
func HartreeFockEnergy(m *Molecule) float64 { return chem.HartreeFockEnergy(m) }

// Downfold applies Hermitian coupled-cluster downfolding (paper §2),
// compressing the molecule onto activeOrbitals spatial orbitals with a
// second-order commutator expansion.
func Downfold(m *Molecule, activeOrbitals int) (*Observable, error) {
	res, err := chem.Downfold(m, chem.DownfoldOptions{ActiveOrbitals: activeOrbitals, Order: 2})
	if err != nil {
		return nil, err
	}
	return res.Qubit, nil
}

// QPEConfig tunes GroundStateQPE.
type QPEConfig struct {
	AncillaQubits int     // default 7
	Time          float64 // default auto
	TrotterSteps  int     // default 4
}

// QPEResult re-exports the QPE outcome.
type QPEResult = qpe.Result

// GroundStateQPE estimates the ground energy by quantum phase estimation
// with a Hartree–Fock input state.
func GroundStateQPE(m *Molecule, cfg QPEConfig) (*QPEResult, error) {
	h := Hamiltonian(m)
	n := m.NumSpinOrbitals()
	if cfg.AncillaQubits == 0 {
		cfg.AncillaQubits = 7
	}
	if cfg.TrotterSteps == 0 {
		cfg.TrotterSteps = 4
	}
	prep := qpe.HartreeFockPrep(n, m.NumElectrons)
	return qpe.Estimate(h, prep, n, qpe.Options{
		AncillaQubits: cfg.AncillaQubits,
		Time:          cfg.Time,
		TrotterSteps:  cfg.TrotterSteps,
	})
}

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// Simulate runs a circuit and returns the final state.
func Simulate(c *Circuit, workers int) *State {
	s := state.New(c.NumQubits, state.Options{Workers: workers})
	s.Run(c)
	return s
}

// Fuse applies the paper's gate-fusion pass (§4.3) with the given maximum
// block width (1 or 2).
func Fuse(c *Circuit, width int) *Circuit { return circuit.Fuse(c, width) }

// Expectation evaluates ⟨ψ|H|ψ⟩ directly from the state amplitudes
// (paper §4.2).
func Expectation(s *State, h *Observable) float64 {
	return pauli.Expectation(s, h, pauli.ExpectationOptions{})
}

// UCCSDAnsatz builds the UCCSD ansatz for a molecule.
func UCCSDAnsatz(m *Molecule) (*UCCSD, error) {
	return ansatz.NewUCCSD(m.NumSpinOrbitals(), m.NumElectrons)
}

// CachingGateCost reports the Figure 3 gate-count comparison for one VQE
// energy evaluation on the given molecule.
func CachingGateCost(m *Molecule) (nonCaching, caching uint64, err error) {
	h := Hamiltonian(m)
	u, err := UCCSDAnsatz(m)
	if err != nil {
		return 0, 0, err
	}
	gc := vqe.CostModel(h, u.Circuit(make([]float64, u.NumParameters())).GateCount())
	return gc.NonCachingTotal, gc.CachingTotal, nil
}

// TaperedHamiltonian builds the qubit observable and removes every
// Z₂-symmetry qubit in the Hartree–Fock sector (H2: 4 → 1 qubit). The
// returned width is the reduced register size.
func TaperedHamiltonian(m *Molecule) (*Observable, int, error) {
	res, err := chem.TaperedHamiltonian(m)
	if err != nil {
		return nil, 0, err
	}
	return res.Tapered, res.NumQubits, nil
}

// HamiltonianBK maps a molecule to qubits with the Bravyi–Kitaev encoding
// instead of Jordan–Wigner (same spectrum, lower Pauli weights).
func HamiltonianBK(m *Molecule) (*Observable, error) {
	enc, err := fermion.BravyiKitaevEncoding(m.NumSpinOrbitals())
	if err != nil {
		return nil, err
	}
	q, err := enc.Transform(chem.FermionicHamiltonian(m))
	if err != nil {
		return nil, err
	}
	return q.HermitianPart(), nil
}

// H2AtDistance builds H2/STO-3G at an arbitrary bond length (Ångström)
// from analytic Gaussian integrals.
func H2AtDistance(r float64) (*Molecule, error) { return chem.H2AtDistance(r) }

// NoisyExpectation estimates ⟨obs⟩ for a circuit under stochastic
// depolarizing noise (p1/p2 per 1q/2q gate) by trajectory averaging.
func NoisyExpectation(c *Circuit, obs *Observable, p1, p2 float64, trajectories int) (mean, stderr float64, err error) {
	res, err := noise.Expectation(c, obs, noise.Model{P1: p1, P2: p2},
		noise.Options{Trajectories: trajectories})
	if err != nil {
		return 0, 0, err
	}
	return res.Mean, res.StdErr, nil
}

package vqesim

// Cross-module integration tests: each exercises a multi-stage pipeline
// through the public facade and internal packages together, asserting
// end-to-end physics rather than per-module contracts.

import (
	"context"
	"math"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/cluster"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/qpe"
	"repro/internal/state"
	"repro/internal/vqe"
)

func TestIntegrationDownfoldThenVQE(t *testing.T) {
	// Full pipeline of the paper's Figure 2: synthetic molecule →
	// downfolded effective Hamiltonian → UCCSD VQE on the reduced space →
	// compare against the downfolded operator's own sector ground state.
	m := chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 6, Decay: 1.2, Correlation: 0.25})
	down, err := chem.Downfold(m, chem.DownfoldOptions{ActiveOrbitals: 2, Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chem.FCIofOp(down.Fermionic, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := vqe.New(down.Qubit, u, vqe.Options{Mode: vqe.Direct})
	if err != nil {
		t.Fatal(err)
	}
	res, err := drv.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{}, vqe.ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-ref.Energy) > 1e-5 {
		t.Errorf("VQE on downfolded H: %v vs sector FCI %v", res.Energy, ref.Energy)
	}
	// And the downfolded result approximates the full-space FCI.
	full, err := chem.FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-full.Energy) > 0.1 {
		t.Errorf("downfolded VQE %v too far from full FCI %v", res.Energy, full.Energy)
	}
}

func TestIntegrationVQEThenQPE(t *testing.T) {
	// The hybrid refinement loop: VQE finds the state, QPE reads its
	// eigenvalue off the optimized preparation circuit.
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, _ := chem.FCI(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	drv, _ := vqe.New(h, u, vqe.Options{Mode: vqe.Direct})
	vres, err := drv.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{}, vqe.ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep := qpe.VQEPrep(u, vres.Params)
	qres, err := qpe.Estimate(h, prep, 4, qpe.Options{AncillaQubits: 8, Time: 0.8, TrotterSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qres.Energy-fci.Energy) > qres.Resolution {
		t.Errorf("QPE on VQE state: %v vs FCI %v (res %v)", qres.Energy, fci.Energy, qres.Resolution)
	}
	if qres.Confidence < 0.4 {
		t.Errorf("confidence %v low for an optimized eigenstate", qres.Confidence)
	}
}

func TestIntegrationTaperThenDiagonalize(t *testing.T) {
	// Tapering composed with the facade: reduced operator reproduces the
	// sector ground energy of the full operator.
	op, n, err := TaperedHamiltonian(H2())
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := linalg.GroundState(op.ToDense(n))
	if err != nil {
		t.Fatal(err)
	}
	fci, _ := ExactGroundEnergy(H2())
	if math.Abs(e-fci) > 1e-8 {
		t.Errorf("tapered ground %v vs FCI %v", e, fci)
	}
}

func TestIntegrationFusedCircuitOnClusterMatchesDirect(t *testing.T) {
	// Transpiled UCCSD executed on the multi-rank backend gives the same
	// energy as the single-node direct path.
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	params := []float64{0.11, -0.07, 0.19}
	c := u.Circuit(params)

	s := state.New(4, state.Options{})
	s.Run(c)
	want := pauli.Expectation(s, h, pauli.ExpectationOptions{})

	s4, err := cluster.Simulate(context.Background(), c, 4, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pauli.NewPlan(h).Evaluate(s4, pauli.ExpectationOptions{}); math.Abs(got-want) > 1e-9 {
		t.Errorf("cluster %v vs direct %v", got, want)
	}

	cl, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(c)
	cs, err := cl.ToState()
	if err != nil {
		t.Fatal(err)
	}
	if e := pauli.Expectation(cs, h, pauli.ExpectationOptions{}); math.Abs(e-want) > 1e-9 {
		t.Errorf("2-rank cluster %v vs direct %v", e, want)
	}
}

func TestIntegrationEncodingAgnosticEnergy(t *testing.T) {
	// The optimized UCCSD energy is encoding-independent when ansatz and
	// observable share the mapping. The Hubbard model goes through RHF
	// first so the aufbau reference is the true mean-field state.
	scf, err := chem.RHF(chem.Hubbard(2, 1, 2, 2), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := scf.Molecule
	fh := chem.FermionicHamiltonian(m)
	fci, _ := chem.FCI(m)
	for name, mk := range map[string]func(int) (*fermion.Encoding, error){
		"bk":     fermion.BravyiKitaevEncoding,
		"parity": fermion.ParityEncoding,
	} {
		enc, err := mk(4)
		if err != nil {
			t.Fatal(err)
		}
		q, err := enc.Transform(fh)
		if err != nil {
			t.Fatal(err)
		}
		u, err := ansatz.NewUCCSDWithEncoding(4, 2, enc)
		if err != nil {
			t.Fatal(err)
		}
		drv, err := vqe.New(q.HermitianPart(), u, vqe.Options{Mode: vqe.Direct})
		if err != nil {
			t.Fatal(err)
		}
		res, err := drv.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{}, vqe.ResilienceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Energy-fci.Energy) > 1e-6 {
			t.Errorf("%s: %v vs FCI %v", name, res.Energy, fci.Energy)
		}
	}
}

func TestIntegrationDissociationCurveVQE(t *testing.T) {
	// Three points of the H2 curve as one sweep family through the
	// facade: VQE == FCI everywhere, with the expected ordering.
	ss := &SweepSpec{
		Base: RunSpec{Algorithm: "vqe", Molecule: MoleculeSpec{Kind: "h2"}},
		Axis: SweepAxis{Param: AxisDistance, Values: []float64{0.5, 0.7414, 1.5}},
	}
	res, err := RunSweep(context.Background(), ss, SweepRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d sweep points failed", res.Failed, len(res.Points))
	}
	energies := map[float64]float64{}
	for _, po := range res.Points {
		if po.Result.ErrorVsExact > 1e-6 {
			t.Errorf("R=%v: VQE error %v", po.Value, po.Result.ErrorVsExact)
		}
		energies[po.Value] = po.Result.Energy
	}
	if !(energies[0.7414] < energies[0.5] && energies[0.7414] < energies[1.5]) {
		t.Errorf("equilibrium not the minimum: %v", energies)
	}
}

func TestIntegrationSymmetryConservationThroughVQE(t *testing.T) {
	// The optimized VQE state keeps ⟨N⟩ and ⟨Sz⟩ at the HF values.
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	drv, _ := vqe.New(h, u, vqe.Options{Mode: vqe.Direct})
	res, err := drv.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{}, vqe.ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := state.New(4, state.Options{})
	s.Run(u.Circuit(res.Params))
	if nEl := pauli.Expectation(s, chem.NumberOperator(4), pauli.ExpectationOptions{}); math.Abs(nEl-2) > 1e-8 {
		t.Errorf("⟨N⟩ = %v", nEl)
	}
	if sz := pauli.Expectation(s, chem.SzOperator(2), pauli.ExpectationOptions{}); math.Abs(sz) > 1e-8 {
		t.Errorf("⟨Sz⟩ = %v", sz)
	}
	if s2 := pauli.Expectation(s, chem.S2Operator(2), pauli.ExpectationOptions{}); math.Abs(s2) > 1e-6 {
		t.Errorf("⟨S²⟩ = %v (ground state should be a singlet)", s2)
	}
}

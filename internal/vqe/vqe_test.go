package vqe

import (
	"context"
	"math"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/state"
)

// h2Setup returns the H2 qubit Hamiltonian, UCCSD ansatz, and FCI energy.
func h2Setup(t *testing.T) (*pauli.Op, *ansatz.UCCSD, float64) {
	t.Helper()
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fci, err := chem.FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	return h, u, fci.Energy
}

func TestEnergyAtZeroIsHartreeFock(t *testing.T) {
	h, u, _ := h2Setup(t)
	d, err := New(h, u, Options{Mode: Direct})
	if err != nil {
		t.Fatal(err)
	}
	e := d.Energy(make([]float64, u.NumParameters()))
	want := chem.HartreeFockEnergy(chem.H2())
	if math.Abs(e-want) > 1e-8 {
		t.Errorf("E(0) = %v, want HF %v", e, want)
	}
}

func TestEnergyModesAgree(t *testing.T) {
	h, u, _ := h2Setup(t)
	params := []float64{0.05, -0.03, 0.1}
	var energies []float64
	for _, mode := range []EnergyMode{Direct, Rotated} {
		for _, caching := range []bool{false, true} {
			d, err := New(h, u, Options{Mode: mode, Caching: caching})
			if err != nil {
				t.Fatal(err)
			}
			energies = append(energies, d.Energy(params))
		}
	}
	for i := 1; i < len(energies); i++ {
		if math.Abs(energies[i]-energies[0]) > 1e-9 {
			t.Errorf("mode/caching disagreement: %v", energies)
		}
	}
}

func TestSampledEnergyConverges(t *testing.T) {
	h, u, _ := h2Setup(t)
	params := []float64{0.05, -0.03, 0.1}
	exact, _ := New(h, u, Options{Mode: Direct})
	want := exact.Energy(params)
	d, _ := New(h, u, Options{Mode: Sampled, Shots: 60000, Caching: true, Seed: 11})
	got := d.Energy(params)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("sampled %v vs exact %v", got, want)
	}
}

func TestVQEReachesFCIForH2(t *testing.T) {
	h, u, fci := h2Setup(t)
	d, err := New(h, u, Options{Mode: Direct})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{}, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-fci) > 1e-6 {
		t.Errorf("VQE %v vs FCI %v", res.Energy, fci)
	}
}

func TestVQENelderMeadReachesFCIForH2(t *testing.T) {
	h, u, fci := h2Setup(t)
	d, _ := New(h, u, Options{Mode: Direct})
	res, err := d.Minimize(context.Background(), make([]float64, u.NumParameters()), opt.NelderMeadOptions{MaxIter: 2000}, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-fci) > 1e-5 {
		t.Errorf("VQE(NM) %v vs FCI %v", res.Energy, fci)
	}
}

func TestAdjointGradientMatchesFiniteDifference(t *testing.T) {
	h, u, _ := h2Setup(t)
	d, _ := New(h, u, Options{Mode: Direct})
	params := []float64{0.07, -0.21, 0.13}
	g := make([]float64, 3)
	d.adjointGradient(params, g)
	fd := make([]float64, 3)
	opt.FiniteDifference(d.Energy, 1e-6)(params, fd)
	for i := range g {
		if math.Abs(g[i]-fd[i]) > 1e-5 {
			t.Errorf("grad[%d]: adjoint %v vs FD %v", i, g[i], fd[i])
		}
	}
}

func TestAdjointGradientLargerSystem(t *testing.T) {
	m := chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 17})
	h := chem.QubitHamiltonian(m)
	u, err := ansatz.NewUCCSD(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := New(h, u, Options{Mode: Direct})
	params := make([]float64, u.NumParameters())
	rng := core.NewRNG(3)
	for i := range params {
		params[i] = 0.1 * rng.NormFloat64()
	}
	g := make([]float64, len(params))
	d.adjointGradient(params, g)
	fd := make([]float64, len(params))
	opt.FiniteDifference(d.Energy, 1e-6)(params, fd)
	for i := range g {
		if math.Abs(g[i]-fd[i]) > 1e-5 {
			t.Fatalf("grad[%d]: adjoint %v vs FD %v", i, g[i], fd[i])
		}
	}
}

func TestCachingReducesAnsatzExecutions(t *testing.T) {
	h, u, _ := h2Setup(t)
	params := []float64{0.05, -0.03, 0.1}

	noCache, _ := New(h, u, Options{Mode: Rotated, Caching: false})
	noCache.Energy(params)
	withCache, _ := New(h, u, Options{Mode: Rotated, Caching: true})
	withCache.Energy(params)

	sNo := noCache.Stats()
	sYes := withCache.Stats()
	if sYes.AnsatzExecutions != 1 {
		t.Errorf("caching ran ansatz %d times, want 1", sYes.AnsatzExecutions)
	}
	if sNo.AnsatzExecutions <= sYes.AnsatzExecutions {
		t.Errorf("no-cache executions %d should exceed cache executions %d",
			sNo.AnsatzExecutions, sYes.AnsatzExecutions)
	}
	if sNo.GatesApplied <= sYes.GatesApplied {
		t.Errorf("no-cache gates %d should exceed cache gates %d",
			sNo.GatesApplied, sYes.GatesApplied)
	}
	if withCache.CacheStats().Hits == 0 {
		t.Error("cache never hit")
	}
}

func TestCachingSpillsToHostTier(t *testing.T) {
	h, u, _ := h2Setup(t)
	// Device capacity below one 4-qubit snapshot → host spill (§4.1.4).
	d, _ := New(h, u, Options{Mode: Rotated, Caching: true, DeviceCapacityBytes: 64})
	d.Energy([]float64{0.05, -0.03, 0.1})
	cs := d.CacheStats()
	if cs.HostSpills == 0 || cs.HostHits == 0 {
		t.Errorf("expected host-tier traffic, got %+v", cs)
	}
}

// TestCachingKeepsOneSnapshot: a snapshot can only serve the evaluation that
// stored it, so the cache holds the current one and nothing older.
func TestCachingKeepsOneSnapshot(t *testing.T) {
	h, u, _ := h2Setup(t)
	d, _ := New(h, u, Options{Mode: Rotated, Caching: true})
	const evaluations = 50
	for i := 0; i < evaluations; i++ {
		d.Energy([]float64{0.05, -0.03, 0.001 * float64(i)})
	}
	cs := d.CacheStats()
	if cs.Puts != evaluations {
		t.Errorf("%d snapshots stored over %d evaluations", cs.Puts, evaluations)
	}
	if oneState := uint64(16 * state.BytesPerAmp); cs.BytesStored != oneState {
		t.Errorf("cache retains %d bytes after %d evaluations, want one 4-qubit state = %d", cs.BytesStored, evaluations, oneState)
	}
}

func TestTranspiledEnergyMatches(t *testing.T) {
	h, u, _ := h2Setup(t)
	params := []float64{0.05, -0.03, 0.1}
	plain, _ := New(h, u, Options{Mode: Direct})
	fused, _ := New(h, u, Options{Mode: Direct, Transpile: true})
	e1, e2 := plain.Energy(params), fused.Energy(params)
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("transpiled energy %v vs plain %v", e2, e1)
	}
	// Fusion must reduce executed gates where there are gates to fuse: a
	// hardware-efficient ansatz (an exponential one runs as one sweep per
	// generator either way).
	hea, err := ansatz.NewHardwareEfficient(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	theta := make([]float64, hea.NumParameters())
	for i := range theta {
		theta[i] = 0.1 * float64(i+1)
	}
	plain, _ = New(h, hea, Options{Mode: Direct})
	fused, _ = New(h, hea, Options{Mode: Direct, Transpile: true})
	if e1, e2 := plain.Energy(theta), fused.Energy(theta); math.Abs(e1-e2) > 1e-9 {
		t.Errorf("HEA transpiled energy %v vs plain %v", e2, e1)
	}
	if fused.Stats().GatesApplied >= plain.Stats().GatesApplied {
		t.Errorf("fusion did not reduce gates: %d vs %d",
			fused.Stats().GatesApplied, plain.Stats().GatesApplied)
	}
}

func TestCostModel(t *testing.T) {
	h := pauli.NewOp().
		Add(pauli.Identity, -1).
		Add(pauli.MustParse("ZZ"), 0.5).
		Add(pauli.MustParse("XX"), 0.25).
		Add(pauli.MustParse("YY"), 0.25)
	gc := CostModel(h, 1000)
	if gc.NumTerms != 3 {
		t.Fatalf("terms %d", gc.NumTerms)
	}
	// Rotations: ZZ→0, XX→2, YY→4 ⇒ 6 total.
	if gc.RotationGates != 6 {
		t.Errorf("rotations %d", gc.RotationGates)
	}
	if gc.NonCachingTotal != 3*1000+6 {
		t.Errorf("non-caching %d", gc.NonCachingTotal)
	}
	if gc.CachingTotal != 1000+6 {
		t.Errorf("caching %d", gc.CachingTotal)
	}
	if gc.SavingsFactor() < 2.5 {
		t.Errorf("savings %v", gc.SavingsFactor())
	}
}

func TestCostModelSavingsGrowWithTerms(t *testing.T) {
	// Fig 3's gap grows with system size because the term count multiplies
	// the ansatz cost only in the non-caching mode.
	small := CostModel(chem.QubitHamiltonian(chem.H2()), 100)
	big := CostModel(chem.QubitHamiltonian(chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 4, NumElectrons: 4, Seed: 1})), 1000)
	if big.SavingsFactor() <= small.SavingsFactor() {
		t.Errorf("savings did not grow: %v vs %v", small.SavingsFactor(), big.SavingsFactor())
	}
}

func TestPoolGradientsMatchFiniteDifference(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	pool, err := ansatz.NewPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	adapt := ansatz.NewAdaptAnsatz(4, 2)
	s := stateFor(adapt, nil)
	grads := PoolGradients(s, h, pool.Ops)
	// Finite-difference check: E(θ) for appending exp(θ A_k) to HF.
	for k, ex := range pool.Ops {
		f := func(th float64) float64 {
			a2 := ansatz.NewAdaptAnsatz(4, 2)
			a2.Grow(ex)
			s2 := stateFor(a2, []float64{th})
			return pauli.Expectation(s2, h, pauli.ExpectationOptions{})
		}
		hstep := 1e-5
		fd := (f(hstep) - f(-hstep)) / (2 * hstep)
		if math.Abs(grads[k]-fd) > 1e-6 {
			t.Errorf("pool grad %d (%s): %v vs FD %v", k, ex.Label, grads[k], fd)
		}
	}
}

func TestAdaptVQEH2ReachesChemicalAccuracy(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, _ := chem.FCI(m)
	pool, _ := ansatz.NewPool(4, 2)
	res, err := Adapt(h, pool, 4, 2, AdaptOptions{
		MaxIterations: 10,
		Reference:     fci.Energy,
		EnergyTol:     core.ChemicalAccuracy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Adapt-VQE did not converge")
	}
	if math.Abs(res.Energy-fci.Energy) > core.ChemicalAccuracy {
		t.Errorf("Adapt energy %v vs FCI %v", res.Energy, fci.Energy)
	}
	// History is monotone non-increasing in energy (variational).
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Energy > res.History[i-1].Energy+1e-9 {
			t.Error("energy increased across Adapt iterations")
		}
	}
	// H2 needs very few operators.
	if len(res.History) > 4 {
		t.Errorf("H2 took %d Adapt iterations", len(res.History))
	}
}

func TestAdaptStopsOnGradientTolerance(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	pool, _ := ansatz.NewPool(4, 2)
	res, err := Adapt(h, pool, 4, 2, AdaptOptions{
		MaxIterations: 25,
		GradientTol:   1e-5,
		Reference:     math.NaN(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("gradient stop never triggered")
	}
}

func TestDriverRejectsWideHamiltonian(t *testing.T) {
	h := pauli.NewOp().Add(pauli.MustParse("IIIIZ"), 1)
	u, _ := ansatz.NewUCCSD(4, 2)
	if _, err := New(h, u, Options{}); err == nil {
		t.Error("mismatched widths accepted")
	}
}

func TestEnergyModeString(t *testing.T) {
	if Direct.String() != "direct" || Rotated.String() != "rotated" || Sampled.String() != "sampled" {
		t.Error("mode names")
	}
}

// stateFor prepares a state by running an ansatz circuit.
func stateFor(a ansatz.Ansatz, params []float64) *state.State {
	if params == nil {
		params = make([]float64, a.NumParameters())
	}
	s := state.New(a.NumQubits(), state.Options{})
	s.Run(a.Circuit(params))
	return s
}

func TestVQEWithAlternativeEncodings(t *testing.T) {
	// UCCSD built under BK/parity must reach FCI against the matching
	// observable — and its circuit has fewer gates than JW's thanks to
	// lower Pauli weights.
	m := chem.H2()
	fci, _ := chem.FCI(m)
	fh := chem.FermionicHamiltonian(m)

	gates := map[string]int{}
	for name, mk := range map[string]func(int) (*fermion.Encoding, error){
		"jw":     fermion.JordanWignerEncoding,
		"bk":     fermion.BravyiKitaevEncoding,
		"parity": fermion.ParityEncoding,
	} {
		enc, err := mk(4)
		if err != nil {
			t.Fatal(err)
		}
		h, err := enc.Transform(fh)
		if err != nil {
			t.Fatal(err)
		}
		u, err := ansatz.NewUCCSDWithEncoding(4, 2, enc)
		if err != nil {
			t.Fatal(err)
		}
		drv, err := New(h.HermitianPart(), u, Options{Mode: Direct})
		if err != nil {
			t.Fatal(err)
		}
		res, err := drv.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{}, ResilienceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Energy-fci.Energy) > 1e-6 {
			t.Errorf("%s: VQE %v vs FCI %v", name, res.Energy, fci.Energy)
		}
		gates[name] = u.Circuit(res.Params).GateCount()
	}
	if gates["bk"] >= gates["jw"] {
		t.Errorf("BK used %d gates, JW %d — expected fewer under BK", gates["bk"], gates["jw"])
	}
}

func TestQubitAdaptVQEH2(t *testing.T) {
	// qubit-ADAPT (single-Pauli pool, paper ref [16]) also reaches
	// chemical accuracy on H2, typically with more iterations than the
	// fermionic pool but far shallower layers.
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, _ := chem.FCI(m)
	pool, err := ansatz.NewQubitPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Adapt(h, pool, 4, 2, AdaptOptions{
		MaxIterations: 15,
		Reference:     fci.Energy,
		EnergyTol:     core.ChemicalAccuracy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("qubit-ADAPT did not converge")
	}
	if math.Abs(res.Energy-fci.Energy) > core.ChemicalAccuracy {
		t.Errorf("qubit-ADAPT %v vs FCI %v", res.Energy, fci.Energy)
	}
}

func TestUCCGSDAtLeastAsExpressive(t *testing.T) {
	// On a 4-electron system where plain UCCSD is not exact, UCCGSD must
	// do at least as well (its excitation set is a superset).
	m := chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 3, NumElectrons: 4, Seed: 13})
	h := chem.QubitHamiltonian(m)
	run := func(u Exponential) float64 {
		d, err := New(h, u, Options{Mode: Direct})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.MinimizeLBFGS(context.Background(), make([]float64, u.NumParameters()), opt.LBFGSOptions{MaxIter: 120}, ResilienceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	plain, err := ansatz.NewUCCSD(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ansatz.NewUCCGSD(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	ePlain := run(plain)
	eGen := run(gen)
	fci, _ := chem.FCI(m)
	if eGen > ePlain+1e-7 {
		t.Errorf("UCCGSD %v worse than UCCSD %v", eGen, ePlain)
	}
	if eGen < fci.Energy-1e-8 {
		t.Errorf("UCCGSD %v below FCI %v (variational violation)", eGen, fci.Energy)
	}
}

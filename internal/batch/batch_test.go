package batch

import (
	"context"
	"math"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/pauli"
)

func TestExecuteAllPreservesOrder(t *testing.T) {
	p := NewPool(3)
	var jobs []Job
	for i := 0; i < 10; i++ {
		c := circuit.New(2)
		if i%2 == 0 {
			c.X(0)
		}
		jobs = append(jobs, Job{ID: i, Circuit: c})
	}
	results := p.ExecuteAll(jobs)
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("result %d has ID %d", i, r.ID)
		}
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		wantIdx := 0
		if i%2 == 0 {
			wantIdx = 1
		}
		if math.Abs(r.Probabilities[wantIdx]-1) > 1e-12 {
			t.Errorf("job %d distribution wrong", i)
		}
	}
}

func TestExecuteAllExpectations(t *testing.T) {
	p := NewPool(2)
	z, _ := pauli.Single('Z', 0)
	obs := pauli.NewOp().Add(z, 1)
	jobs := []Job{
		{ID: 0, Circuit: circuit.New(1), Observable: obs},      // |0⟩: +1
		{ID: 1, Circuit: circuit.New(1).X(0), Observable: obs}, // |1⟩: −1
		{ID: 2, Circuit: circuit.New(1).H(0), Observable: obs}, // |+⟩: 0
	}
	res := p.ExecuteAll(jobs)
	want := []float64{1, -1, 0}
	for i, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if math.Abs(r.Expectation-want[i]) > 1e-12 {
			t.Errorf("job %d: %v, want %v", i, r.Expectation, want[i])
		}
	}
}

func TestExecuteAllShots(t *testing.T) {
	p := NewPool(2)
	res := p.ExecuteAll([]Job{{Circuit: circuit.New(1).H(0), Shots: 2000, Seed: 3}})
	total := 0
	for _, c := range res[0].Counts {
		total += c
	}
	if total != 2000 {
		t.Errorf("shot total %d", total)
	}
}

func TestExecuteAllNilCircuit(t *testing.T) {
	p := NewPool(1)
	res := p.ExecuteAll([]Job{{ID: 7}})
	if res[0].Err == nil {
		t.Error("nil circuit accepted")
	}
}

func TestEnergiesMatchSequential(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	sets := [][]float64{
		{0, 0, 0},
		{0.1, -0.05, 0.02},
		{-0.2, 0.3, 0.07},
		{0.05, 0.05, -0.11},
	}
	p := NewPool(4)
	batched, err := p.Energies(h, u, sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range sets {
		c := u.Circuit(ps)
		job := runJob(Job{Circuit: c, Observable: h})
		if math.Abs(batched[i]-job.Expectation) > 1e-12 {
			t.Errorf("set %d: batched %v vs direct %v", i, batched[i], job.Expectation)
		}
	}
	// E(0) must be the HF energy.
	if math.Abs(batched[0]-chem.HartreeFockEnergy(m)) > 1e-8 {
		t.Errorf("E(0) = %v", batched[0])
	}
}

func TestEnergiesValidation(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	u, _ := ansatz.NewUCCSD(4, 2)
	p := NewPool(2)
	if _, err := p.Energies(h, u, [][]float64{{1}}); err == nil {
		t.Error("bad parameter length accepted")
	}
	wide := pauli.NewOp().Add(pauli.MustParse("IIIIZ"), 1)
	if _, err := p.Energies(wide, u, nil); err == nil {
		t.Error("wide observable accepted")
	}
}

func TestBatchedGradientMatchesAnalytic(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	u, _ := ansatz.NewUCCSD(4, 2)
	params := []float64{0.1, -0.07, 0.23}
	p := NewPool(4)
	g, err := p.Gradient(h, u, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against a one-sided sequential estimate.
	e0s := runJob(Job{Circuit: u.Circuit(params), Observable: h}).Expectation
	const hstep = 1e-6
	for i := range params {
		pp := append([]float64(nil), params...)
		pp[i] += hstep
		ep := runJob(Job{Circuit: u.Circuit(pp), Observable: h}).Expectation
		approx := (ep - e0s) / hstep
		if math.Abs(g[i]-approx) > 1e-4 {
			t.Errorf("grad[%d]: %v vs %v", i, g[i], approx)
		}
	}
}

func TestEnsembleVQEFindsGround(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, _ := chem.FCI(m)
	p := NewPool(4)
	results, err := p.EnsembleVQE(context.Background(), h, func() ansatz.Ansatz {
		u, _ := ansatz.NewUCCSD(4, 2)
		return u
	}, 5, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	best := results[0]
	if best.Err != nil {
		t.Fatal(best.Err)
	}
	if math.Abs(best.Energy-fci.Energy) > 1e-6 {
		t.Errorf("ensemble best %v vs FCI %v", best.Energy, fci.Energy)
	}
	// Sorted ascending by energy.
	for i := 1; i < len(results); i++ {
		if results[i].Err == nil && results[i].Energy < results[i-1].Energy-1e-12 {
			t.Error("results not sorted")
		}
	}
}

func TestEnsembleValidation(t *testing.T) {
	p := NewPool(1)
	if _, err := p.EnsembleVQE(context.Background(), pauli.NewOp(), nil, 0, 0.1, 1); err == nil {
		t.Error("zero members accepted")
	}
}

func TestPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() != 4 {
		t.Error("default workers")
	}
	if NewPool(7).Workers() != 7 {
		t.Error("explicit workers")
	}
}

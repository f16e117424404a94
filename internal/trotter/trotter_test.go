package trotter

import (
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/pauli"
	"repro/internal/state"
)

// tfim returns a transverse-field Ising Hamiltonian on n qubits:
// H = −J Σ Z_i Z_{i+1} − g Σ X_i (terms do not commute → real Trotter
// error).
func tfim(n int, j, g float64) *pauli.Op {
	h := pauli.NewOp()
	for i := 0; i+1 < n; i++ {
		zz := pauli.String{Z: 3 << uint(i)}
		h.Add(zz, complex(-j, 0))
	}
	for i := 0; i < n; i++ {
		x := pauli.String{X: 1 << uint(i)}
		h.Add(x, complex(-g, 0))
	}
	return h
}

func TestCommutingHamiltonianIsExact(t *testing.T) {
	// All-Z Hamiltonians commute term-wise: one step is exact.
	h := pauli.NewOp().
		Add(pauli.MustParse("ZII"), 0.5).
		Add(pauli.MustParse("IZI"), -0.3).
		Add(pauli.MustParse("ZZI"), 0.7)
	initial := circuit.New(3).H(0).H(1).H(2)
	for _, order := range []Order{First, Second} {
		d, err := Error(h, 3, initial, Options{Time: 1.3, Steps: 1, Order: order})
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 {
			t.Errorf("order %d: commuting Hamiltonian not exact: %v", order, d)
		}
	}
}

func TestErrorDecreasesWithSteps(t *testing.T) {
	h := tfim(3, 1, 0.7)
	initial := circuit.New(3).H(1)
	prev := math.Inf(1)
	for _, steps := range []int{1, 2, 4, 8, 16} {
		d, err := Error(h, 3, initial, Options{Time: 1.0, Steps: steps, Order: First})
		if err != nil {
			t.Fatal(err)
		}
		if d >= prev {
			t.Errorf("steps=%d: error %v did not decrease from %v", steps, d, prev)
		}
		prev = d
	}
}

func TestFirstOrderScaling(t *testing.T) {
	// Global first-order error ~ t²/steps: doubling steps should roughly
	// halve the error (allow generous slack for prefactors).
	h := tfim(3, 1, 0.9)
	d8, _ := Error(h, 3, nil, Options{Time: 1, Steps: 8, Order: First})
	d16, _ := Error(h, 3, nil, Options{Time: 1, Steps: 16, Order: First})
	ratio := d8 / d16
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("first-order step ratio %v, want ≈2", ratio)
	}
}

func TestSecondOrderScaling(t *testing.T) {
	// Second-order error ~ 1/steps²: doubling steps quarters the error.
	h := tfim(3, 1, 0.9)
	d8, _ := Error(h, 3, nil, Options{Time: 1, Steps: 8, Order: Second})
	d16, _ := Error(h, 3, nil, Options{Time: 1, Steps: 16, Order: Second})
	ratio := d8 / d16
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("second-order step ratio %v, want ≈4", ratio)
	}
}

func TestSecondOrderBeatsFirst(t *testing.T) {
	h := tfim(4, 1, 0.6)
	d1, _ := Error(h, 4, nil, Options{Time: 1, Steps: 6, Order: First})
	d2, _ := Error(h, 4, nil, Options{Time: 1, Steps: 6, Order: Second})
	if d2 >= d1 {
		t.Errorf("second order %v not better than first %v", d2, d1)
	}
}

func TestH2EvolutionPreservesEnergy(t *testing.T) {
	// Energy is conserved under its own evolution.
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	initial := circuit.New(4).X(0).X(1) // HF determinant
	c, err := Circuit(h, 4, Options{Time: 0.5, Steps: 8, Order: Second})
	if err != nil {
		t.Fatal(err)
	}
	before := energyOf(h, initial, nil)
	after := energyOf(h, initial, c)
	if math.Abs(before-after) > 1e-3 {
		t.Errorf("energy drifted: %v → %v", before, after)
	}
}

func energyOf(h *pauli.Op, prep, evo *circuit.Circuit) float64 {
	s := state.New(prep.NumQubits, state.Options{})
	s.Run(prep)
	if evo != nil {
		s.Run(evo)
	}
	return pauli.Expectation(s, h, pauli.ExpectationOptions{})
}

func TestCircuitValidation(t *testing.T) {
	h := pauli.NewOp().Add(pauli.MustParse("Z"), 1)
	if _, err := Circuit(h, 1, Options{Time: 1, Steps: 0, Order: First}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := Circuit(h, 1, Options{Time: 1, Steps: 1, Order: 3}); err == nil {
		t.Error("order 3 accepted")
	}
	wide := pauli.NewOp().Add(pauli.MustParse("IZ"), 1)
	if _, err := Circuit(wide, 1, Options{Time: 1, Steps: 1, Order: First}); err == nil {
		t.Error("wide Hamiltonian accepted")
	}
	nonH := pauli.NewOp().Add(pauli.MustParse("Z"), 1i)
	if _, err := Circuit(nonH, 1, Options{Time: 1, Steps: 1, Order: First}); err == nil {
		t.Error("non-Hermitian accepted")
	}
}

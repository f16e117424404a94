package chem

import (
	"math"
	"testing"
)

func TestBoysF0(t *testing.T) {
	if math.Abs(boysF0(0)-1) > 1e-12 {
		t.Error("F0(0) != 1")
	}
	// F0(1) = ½√π·erf(1) ≈ 0.746824.
	if math.Abs(boysF0(1)-0.7468241328) > 1e-9 {
		t.Errorf("F0(1) = %v", boysF0(1))
	}
	// Continuity across the series/closed-form switch.
	if math.Abs(boysF0(1e-13)-boysF0(2e-12)) > 1e-9 {
		t.Error("F0 discontinuous near 0")
	}
	// Monotone decreasing.
	if boysF0(0.5) <= boysF0(1.5) {
		t.Error("F0 not decreasing")
	}
}

func TestPrimitiveOverlapSelf(t *testing.T) {
	// A normalized primitive overlaps itself with 1.
	for _, a := range []float64{0.3, 1.0, 3.5} {
		if s := primOverlap(a, a, 0); math.Abs(s-1) > 1e-12 {
			t.Errorf("self overlap %v at α=%v", s, a)
		}
	}
}

func TestContractedAONormalization(t *testing.T) {
	// The contracted STO-3G 1s function is normalized to ~1.
	s := contracted2(func(a, b float64) float64 { return primOverlap(a, b, 0) })
	if math.Abs(s-1) > 1e-4 {
		t.Errorf("⟨χ|χ⟩ = %v", s)
	}
}

func TestAOIntegralsAtEquilibrium(t *testing.T) {
	// Szabo–Ostlund reference values for H2/STO-3G at R = 1.4 a₀:
	// S12 ≈ 0.6593, T11 ≈ 0.7600, V11(total) makes h11 ≈ −1.1204,
	// (11|11) ≈ 0.7746, (11|22) ≈ 0.5697, (12|12) ≈ 0.2970.
	ao := h2AOIntegrals(1.4)
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"S12", ao.s12, 0.6593, 2e-3},
		{"h11", ao.hcore[0][0], -1.1204, 5e-3},
		{"h12", ao.hcore[0][1], -0.9584, 5e-3},
		{"(11|11)", ao.eri[0][0][0][0], 0.7746, 2e-3},
		{"(11|22)", ao.eri[0][0][1][1], 0.5697, 2e-3},
		{"(12|12)", ao.eri[0][1][0][1], 0.2970, 2e-3},
		{"(11|12)", ao.eri[0][0][0][1], 0.4441, 2e-3},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %.4f, want %.4f", c.name, c.got, c.want)
		}
	}
}

func TestH2AtEquilibriumMatchesHardcoded(t *testing.T) {
	// The computed-integral molecule at R = 0.7414 Å must reproduce the
	// hardcoded literature model used elsewhere in the suite.
	got, err := H2AtDistance(0.7414)
	if err != nil {
		t.Fatal(err)
	}
	want := H2()
	if math.Abs(got.NuclearRepulsion-want.NuclearRepulsion) > 1e-4 {
		t.Errorf("E_nuc %v vs %v", got.NuclearRepulsion, want.NuclearRepulsion)
	}
	if math.Abs(got.OneBody[0][0]-want.OneBody[0][0]) > 2e-3 {
		t.Errorf("h00 %v vs %v", got.OneBody[0][0], want.OneBody[0][0])
	}
	if math.Abs(got.OneBody[1][1]-want.OneBody[1][1]) > 2e-3 {
		t.Errorf("h11 %v vs %v", got.OneBody[1][1], want.OneBody[1][1])
	}
	if math.Abs(got.TwoBody[0][0][0][0]-want.TwoBody[0][0][0][0]) > 2e-3 {
		t.Errorf("(00|00) %v vs %v", got.TwoBody[0][0][0][0], want.TwoBody[0][0][0][0])
	}
	// Energies.
	gotFCI, err := FCI(got)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotFCI.Energy-(-1.13727)) > 1e-3 {
		t.Errorf("FCI at equilibrium: %v", gotFCI.Energy)
	}
	if math.Abs(HartreeFockEnergy(got)-(-1.11668)) > 1e-3 {
		t.Errorf("HF at equilibrium: %v", HartreeFockEnergy(got))
	}
}

func TestH2IntegralsValidate(t *testing.T) {
	for _, r := range []float64{0.5, 0.7414, 1.2, 2.5} {
		m, err := H2AtDistance(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("R=%v: %v", r, err)
		}
		// Off-diagonal one-body elements vanish by g/u symmetry.
		if math.Abs(m.OneBody[0][1]) > 1e-10 {
			t.Errorf("R=%v: symmetry-forbidden h01 = %v", r, m.OneBody[0][1])
		}
	}
}

func TestH2AtDistanceRejectsNonPositive(t *testing.T) {
	if _, err := H2AtDistance(0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := H2AtDistance(-1); err == nil {
		t.Error("R<0 accepted")
	}
}

package chem

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// This file implements analytic molecular integrals over s-type contracted
// Gaussians (STO-3G) for the hydrogen molecule, so H2 is available at any
// bond distance — which is what enables potential-energy-surface
// experiments (the application driving the paper's downfolding section).
// All formulas are the textbook closed forms (Szabo & Ostlund, appendix A):
//
//	overlap    S  = (π/p)^{3/2} · e^{−μR²}
//	kinetic    T  = μ(3 − 2μR²)(π/p)^{3/2} · e^{−μR²}
//	nuclear    V  = −(2π/p)·Z · e^{−μR²} · F₀(p·R_PC²)
//	(ab|cd)       = 2π^{5/2}/(pq√(p+q)) · e^{−μ_ab R_AB²} e^{−μ_cd R_CD²} · F₀(x)
//
// with p = a+b, μ = ab/p and the Boys function F₀.

// sto3gHydrogen holds the STO-3G 1s expansion for hydrogen (ζ = 1.24).
var sto3gHydrogen = struct {
	exps, coefs [3]float64
}{
	exps:  [3]float64{3.425250914, 0.6239137298, 0.1688554040},
	coefs: [3]float64{0.1543289673, 0.5353281423, 0.4446345422},
}

// boysF0 evaluates F₀(x) = ½√(π/x)·erf(√x), continuous at x → 0.
func boysF0(x float64) float64 {
	if x < 1e-12 {
		return 1 - x/3 // series: F₀(x) = 1 − x/3 + x²/10 − …
	}
	return 0.5 * math.Sqrt(math.Pi/x) * math.Erf(math.Sqrt(x))
}

// gaussNorm is the normalization of a primitive s Gaussian.
func gaussNorm(alpha float64) float64 {
	return math.Pow(2*alpha/math.Pi, 0.75)
}

// primOverlap returns ⟨a,A|b,B⟩ for normalized primitives at distance r.
func primOverlap(a, b, r float64) float64 {
	p := a + b
	mu := a * b / p
	return gaussNorm(a) * gaussNorm(b) * math.Pow(math.Pi/p, 1.5) * math.Exp(-mu*r*r)
}

// primKinetic returns ⟨a,A|−∇²/2|b,B⟩.
func primKinetic(a, b, r float64) float64 {
	p := a + b
	mu := a * b / p
	return gaussNorm(a) * gaussNorm(b) * mu * (3 - 2*mu*r*r) *
		math.Pow(math.Pi/p, 1.5) * math.Exp(-mu*r*r)
}

// primNuclear returns ⟨a,A|−Z/|r−C||b,B⟩ for 1D-collinear geometry:
// centers at coordinates xa, xb, nucleus at xc (all on the z-axis).
func primNuclear(a, xa, b, xb, xc, z float64) float64 {
	p := a + b
	rab := xa - xb
	mu := a * b / p
	xp := (a*xa + b*xb) / p
	rpc := xp - xc
	return -gaussNorm(a) * gaussNorm(b) * (2 * math.Pi / p) * z *
		math.Exp(-mu*rab*rab) * boysF0(p*rpc*rpc)
}

// primERI returns the two-electron integral (ab|cd) in chemist notation
// for collinear s primitives at coordinates xa…xd.
func primERI(a, xa, b, xb, c, xc, d, xd float64) float64 {
	p := a + b
	q := c + d
	rab := xa - xb
	rcd := xc - xd
	xp := (a*xa + b*xb) / p
	xq := (c*xc + d*xd) / q
	rpq := xp - xq
	pref := 2 * math.Pow(math.Pi, 2.5) / (p * q * math.Sqrt(p+q))
	return gaussNorm(a) * gaussNorm(b) * gaussNorm(c) * gaussNorm(d) *
		pref * math.Exp(-a*b/p*rab*rab) * math.Exp(-c*d/q*rcd*rcd) *
		boysF0(p*q/(p+q)*rpq*rpq)
}

// contracted2 sums a two-index primitive kernel over the STO-3G
// contraction.
func contracted2(kernel func(a, b float64) float64) float64 {
	g := sto3gHydrogen
	total := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			total += g.coefs[i] * g.coefs[j] * kernel(g.exps[i], g.exps[j])
		}
	}
	return total
}

// h2AO holds the AO-basis integrals of H2 at bond distance r (bohr):
// functions χ₁ (at 0) and χ₂ (at r).
type h2AO struct {
	s12   float64 // overlap ⟨χ₁|χ₂⟩
	hcore [2][2]float64
	eri   [2][2][2][2]float64
	enuc  float64
}

// h2AOIntegrals evaluates all AO integrals at distance r (bohr).
func h2AOIntegrals(r float64) h2AO {
	g := sto3gHydrogen
	pos := [2]float64{0, r}
	var out h2AO
	out.enuc = 1 / r

	dist := func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }

	// Overlap and core Hamiltonian.
	var s [2][2]float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s[i][j] = contracted2(func(a, b float64) float64 {
				return primOverlap(a, b, dist(i, j))
			})
			t := contracted2(func(a, b float64) float64 {
				return primKinetic(a, b, dist(i, j))
			})
			v := 0.0
			for nuc := 0; nuc < 2; nuc++ {
				i, j, nuc := i, j, nuc
				v += contracted2(func(a, b float64) float64 {
					return primNuclear(a, pos[i], b, pos[j], pos[nuc], 1)
				})
			}
			out.hcore[i][j] = t + v
		}
	}
	out.s12 = s[0][1]

	// Two-electron integrals (ij|kl) over the 2 AOs.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				for l := 0; l < 2; l++ {
					i, j, k, l := i, j, k, l
					g3 := 0.0
					for p := 0; p < 3; p++ {
						for q := 0; q < 3; q++ {
							for t := 0; t < 3; t++ {
								for u := 0; u < 3; u++ {
									g3 += g.coefs[p] * g.coefs[q] * g.coefs[t] * g.coefs[u] *
										primERI(g.exps[p], pos[i], g.exps[q], pos[j],
											g.exps[t], pos[k], g.exps[u], pos[l])
								}
							}
						}
					}
					out.eri[i][j][k][l] = g3
				}
			}
		}
	}
	return out
}

// AngstromToBohr converts lengths (1 Å = 1.8897259886 a₀).
const AngstromToBohr = 1.8897259886

// H2AtDistance builds the H2/STO-3G molecule at bond distance r in
// Ångström, with integrals in the symmetry-adapted molecular-orbital basis
// σ_g = (χ₁+χ₂)/√(2(1+S)) and σ_u = (χ₁−χ₂)/√(2(1−S)). For a homonuclear
// diatomic these are the exact RHF orbitals, so no SCF iteration is
// needed.
func H2AtDistance(rAngstrom float64) (*MolecularData, error) {
	if rAngstrom <= 0 {
		return nil, fmt.Errorf("%w: bond distance %v", core.ErrInvalidArgument, rAngstrom)
	}
	r := rAngstrom * AngstromToBohr
	ao := h2AOIntegrals(r)

	// MO coefficients over (χ₁, χ₂).
	ng := 1 / math.Sqrt(2*(1+ao.s12))
	nu := 1 / math.Sqrt(2*(1-ao.s12))
	c := [2][2]float64{
		{ng, ng},  // σ_g
		{nu, -nu}, // σ_u
	}

	m := &MolecularData{
		Name:             fmt.Sprintf("H2/STO-3G (R=%.4fÅ)", rAngstrom),
		NumOrbitals:      2,
		NumElectrons:     2,
		NuclearRepulsion: ao.enuc,
		OneBody:          allocOneBody(2),
		TwoBody:          allocTwoBody(2),
	}
	for p := 0; p < 2; p++ {
		for q := 0; q < 2; q++ {
			h := 0.0
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					h += c[p][i] * c[q][j] * ao.hcore[i][j]
				}
			}
			if math.Abs(h) < 1e-12 {
				h = 0
			}
			m.OneBody[p][q] = h
		}
	}
	for p := 0; p < 2; p++ {
		for q := 0; q < 2; q++ {
			for rr := 0; rr < 2; rr++ {
				for ss := 0; ss < 2; ss++ {
					v := 0.0
					for i := 0; i < 2; i++ {
						for j := 0; j < 2; j++ {
							for k := 0; k < 2; k++ {
								for l := 0; l < 2; l++ {
									v += c[p][i] * c[q][j] * c[rr][k] * c[ss][l] * ao.eri[i][j][k][l]
								}
							}
						}
					}
					if math.Abs(v) < 1e-12 {
						v = 0
					}
					m.TwoBody[p][q][rr][ss] = v
				}
			}
		}
	}
	return m, nil
}

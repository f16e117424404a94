package state

import (
	"math"
	"math/bits"

	"repro/internal/core"
)

// This file holds the generator-exponential kernel. An anti-Hermitian
// Pauli sum whose strings share one X mask x ≠ 0 maps every basis state i
// to i⊕x alone: A|i⟩ = a(i)·|i⊕x⟩ with a(i) = Σₜ cₜ·(−1)^{|i∧zₜ|} and
// a(i⊕x) = −conj(a(i)). On each amplitude pair (i, i⊕x) it is therefore
// the 2×2 block [[0, −ā], [a, 0]], whose square is −|a|²·1, so
//
//	exp(θ·A) = cos(θ|a|)·1 + sin(θ|a|)/|a|·A
//
// exactly, pair by pair — one sweep instead of the basis-change +
// CNOT-staircase + RZ ladder per string that a circuit spends on it.

// PairBracket returns 2·Re⟨lam|A|ψ⟩ for one X-mask group x ≠ 0 of an
// anti-Hermitian generator — zs are the strings' Z masks, cs their
// coefficients with the i^{|x∧z|} of the symplectic form folded in (what
// pauli.Plan compiles) — reading both vectors and writing neither. lam has
// the state's length. The sweep is chunked over the pool the way a gate
// is, with the per-chunk brackets summed in chunk order.
func (s *State) PairBracket(x uint64, zs []uint64, cs []complex128, lam []complex128) float64 {
	amps := s.amps
	if len(lam) != len(amps) {
		panic(core.ErrDimensionMismatch)
	}
	total := uint64(len(amps)) / 2 // one index per pair: the half-space with x's lowest bit clear
	if int(total) < s.opts.ParallelThreshold || s.opts.Workers <= 1 || s.pool == nil {
		mPoolInline.Inc()
		return pairBracket(amps, lam, x, zs, cs, 0, total)
	}
	return s.pool.ReduceFloat(total, s.opts.Workers, func(lo, hi uint64) float64 {
		return pairBracket(amps, lam, x, zs, cs, lo, hi)
	})
}

// pairBracket is PairBracket's loop over pair indices [lo, hi): pairs whose
// four amplitudes are all zero, or whose coupling is, add nothing.
//
//vqesim:hotpath
func pairBracket(phi, lam []complex128, x uint64, zs []uint64, cs []complex128, lo, hi uint64) float64 {
	q := bits.TrailingZeros64(x)
	var r rotor // θ = 0: read only
	bracket := 0.0
	for rest := lo; rest < hi; rest++ {
		i := core.InsertZeroBit(rest, q)
		j := i ^ x
		if phi[i] == 0 && phi[j] == 0 && lam[i] == 0 && lam[j] == 0 {
			continue
		}
		a := PairCoeff(i, zs, cs)
		if a == 0 {
			continue
		}
		bracket += r.rotate(a, phi, lam, i, j)
	}
	return 2 * bracket
}

// Pair is one 2×2 block of an anti-Hermitian generator between positions P
// and Q of an amplitude vector of any length: A|P⟩ = A·|Q⟩ and
// A|Q⟩ = −conj(A)·|P⟩ (pauli.Plan.RestrictPairs enumerates them).
type Pair struct {
	P, Q int32
	A    complex128
}

// RotatePairList applies exp(θ·A) for one X-mask group, given as its
// explicit pair list, to phi and to a non-nil lam, in place, and returns
// 2·Re⟨lam|A|phi⟩, which the rotation leaves unchanged; at θ = 0 it is the
// bracket alone, reading both vectors. A rotation counts as one in
// telemetry (there is no State to count a gate on), a bracket as none.
//
//vqesim:hotpath
func RotatePairList(phi, lam []complex128, pairs []Pair, theta float64) float64 {
	if theta != 0 {
		mGatePairs.Inc()
	}
	bracket := 0.0
	r := rotor{theta: theta, lastMag2: -1}
	for _, p := range pairs {
		bracket += r.rotate(p.A, phi, lam, uint64(p.P), uint64(p.Q))
	}
	return 2 * bracket
}

// rotor is the 2×2 arithmetic of one pair sweep at angle theta, sine and
// cosine memoized on |a|²: the one copy behind both sweeps. Its zero value
// is the read-only bracket.
type rotor struct {
	theta, lastMag2, cos, sinOverMag float64
}

// rotate returns Re⟨lam|A|phi⟩ on the pair (i, j) with A|i⟩ = a·|j⟩ and,
// when θ ≠ 0, applies the block's exponential to phi and to a non-nil lam.
//
//vqesim:hotpath
func (r *rotor) rotate(a complex128, phi, lam []complex128, i, j uint64) float64 {
	pi, pj := phi[i], phi[j]
	var li, lj complex128
	if lam != nil {
		li, lj = lam[i], lam[j]
	}
	ar, ai := real(a), imag(a)
	// ⟨lam|A|φ⟩ on the pair: conj(lⱼ)·a·φᵢ − conj(lᵢ)·ā·φⱼ, real part.
	bracket := ar*(real(lj)*real(pi)+imag(lj)*imag(pi)-real(li)*real(pj)-imag(li)*imag(pj)) -
		ai*(real(lj)*imag(pi)-imag(lj)*real(pi)+real(li)*imag(pj)-imag(li)*real(pj))
	if r.theta == 0 {
		return bracket
	}
	//vqelint:ignore floatcompare memo key: recompute sin/cos exactly when |a|² is a different value
	if m2 := ar*ar + ai*ai; m2 != r.lastMag2 {
		r.lastMag2 = m2
		mag := math.Sqrt(m2)
		sin, c := math.Sincos(r.theta * mag)
		r.cos, r.sinOverMag = c, sin/mag
	}
	u := complex(r.sinOverMag*ar, r.sinOverMag*ai) // sin(θ|a|)·a/|a|
	uc := complex(real(u), -imag(u))
	c := complex(r.cos, 0)
	phi[i] = c*pi - uc*pj
	phi[j] = c*pj + u*pi
	if lam != nil {
		lam[i] = c*li - uc*lj
		lam[j] = c*lj + u*li
	}
	return bracket
}

// PairCoeff evaluates a(i) = Σₜ cₜ·(−1)^{|i∧zₜ|}.
//
//vqesim:hotpath
func PairCoeff(i uint64, zs []uint64, cs []complex128) complex128 {
	// Signs by multiplication (±1 is exact), not branches: the parity of
	// i∧z is as good as random to the predictor.
	var ar, ai float64
	for t, z := range zs {
		sg := 1 - 2*float64(bits.OnesCount64(i&z)&1)
		ar += sg * real(cs[t])
		ai += sg * imag(cs[t])
	}
	return complex(ar, ai)
}

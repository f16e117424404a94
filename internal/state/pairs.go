package state

import (
	"math"
	"math/bits"

	"repro/internal/core"
)

// This file holds the generator-exponential kernel. An anti-Hermitian
// Pauli sum whose strings share one X mask x maps every basis state i to
// i⊕x alone: A|i⟩ = a(i)·|i⊕x⟩ with a(i) = Σₜ cₜ·(−1)^{|i∧zₜ|} and
// a(i⊕x) = −conj(a(i)). On each amplitude pair (i, i⊕x) it is therefore
// the 2×2 block [[0, −ā], [a, 0]], whose square is −|a|²·1, so
//
//	exp(θ·A) = cos(θ|a|)·1 + sin(θ|a|)/|a|·A
//
// exactly, pair by pair — one sweep instead of the basis-change +
// CNOT-staircase + RZ ladder per string that a circuit spends on it. For
// x = 0 the block is the phase exp(θ·a(i)) with a(i) imaginary.

// RotatePairs applies exp(θ·A) to the state in place for one X-mask group
// of an anti-Hermitian generator: zs are the strings' Z masks, cs their
// coefficients with the i^{|x∧z|} of the symplectic form folded in (what
// pauli.Plan compiles). A non-nil lam, the same length as the state, is
// rotated through the same pass and the return value is 2·Re⟨lam|A|ψ⟩,
// which exp(θ·A) leaves invariant on both; with a nil lam it is 0. Pairs
// whose amplitudes are all exactly zero are skipped and stay zero. Counts
// as one applied gate.
func (s *State) RotatePairs(x uint64, zs []uint64, cs []complex128, theta float64, lam []complex128) float64 {
	v := s.sweepPairs(x, zs, cs, theta, lam)
	s.nGates++
	mGatePairs.Inc()
	return v
}

// PairBracket returns 2·Re⟨lam|A|ψ⟩ for the group RotatePairs describes,
// reading both vectors and writing neither.
func (s *State) PairBracket(x uint64, zs []uint64, cs []complex128, lam []complex128) float64 {
	return s.sweepPairs(x, zs, cs, 0, lam)
}

// sweepPairs chunks one pair sweep over the pool the way a gate is, with
// the per-chunk brackets summed in chunk order.
func (s *State) sweepPairs(x uint64, zs []uint64, cs []complex128, theta float64, lam []complex128) float64 {
	amps := s.amps
	if lam != nil && len(lam) != len(amps) {
		panic(core.ErrDimensionMismatch)
	}
	total := uint64(len(amps))
	if x != 0 {
		total /= 2 // one index per pair: the half-space with x's lowest bit clear
	}
	if int(total) < s.opts.ParallelThreshold || s.opts.Workers <= 1 || s.pool == nil {
		mPoolInline.Inc()
		return rotatePairs(amps, lam, x, zs, cs, theta, 0, total)
	}
	return s.pool.ReduceFloat(total, s.opts.Workers, func(lo, hi uint64) float64 {
		return rotatePairs(amps, lam, x, zs, cs, theta, lo, hi)
	})
}

// rotatePairs is the loop body of both verbs over pair indices [lo, hi):
// it accumulates the bracket when lam is set and rotates when θ ≠ 0 (a
// rotation by zero is the identity, so the pool scan's read-only bracket
// is this loop at θ = 0). a(i) takes a handful of distinct magnitudes
// over a sweep — one, for a fermionic excitation — so the sine and cosine
// are recomputed only when |a|² changes.
//
//vqesim:hotpath
func rotatePairs(phi, lam []complex128, x uint64, zs []uint64, cs []complex128, theta float64, lo, hi uint64) float64 {
	bracket := 0.0
	lastMag2, cos, sinOverMag := -1.0, 1.0, 0.0
	if x == 0 {
		for i := lo; i < hi; i++ {
			p := phi[i]
			var l complex128
			if lam != nil {
				l = lam[i]
			}
			if p == 0 && l == 0 {
				continue
			}
			d := imag(pairCoeff(i, zs, cs)) // a(i) = i·d
			if d == 0 {
				continue
			}
			// Re(conj(l)·i·d·p)
			bracket += d * (imag(l)*real(p) - real(l)*imag(p))
			if theta == 0 {
				continue
			}
			//vqelint:ignore floatcompare memo key: recompute sin/cos exactly when |a|² is a different value
			if m2 := d * d; m2 != lastMag2 {
				lastMag2 = m2
				sin, c := math.Sincos(theta * math.Abs(d))
				cos, sinOverMag = c, sin/math.Abs(d)
			}
			ph := complex(cos, sinOverMag*d)
			phi[i] = ph * p
			if lam != nil {
				lam[i] = ph * l
			}
		}
		return 2 * bracket
	}
	q := bits.TrailingZeros64(x)
	for rest := lo; rest < hi; rest++ {
		i := core.InsertZeroBit(rest, q)
		j := i ^ x
		pi, pj := phi[i], phi[j]
		var li, lj complex128
		if lam != nil {
			li, lj = lam[i], lam[j]
		}
		if pi == 0 && pj == 0 && li == 0 && lj == 0 {
			continue
		}
		a := pairCoeff(i, zs, cs)
		if a == 0 {
			continue
		}
		ar, ai := real(a), imag(a)
		// ⟨lam|A|φ⟩ on the pair: conj(lⱼ)·a·φᵢ − conj(lᵢ)·ā·φⱼ, real part.
		bracket += ar*(real(lj)*real(pi)+imag(lj)*imag(pi)-real(li)*real(pj)-imag(li)*imag(pj)) -
			ai*(real(lj)*imag(pi)-imag(lj)*real(pi)+real(li)*imag(pj)-imag(li)*real(pj))
		if theta == 0 {
			continue
		}
		//vqelint:ignore floatcompare memo key: recompute sin/cos exactly when |a|² is a different value
		if m2 := ar*ar + ai*ai; m2 != lastMag2 {
			lastMag2 = m2
			mag := math.Sqrt(m2)
			sin, c := math.Sincos(theta * mag)
			cos, sinOverMag = c, sin/mag
		}
		u := complex(sinOverMag*ar, sinOverMag*ai) // sin(θ|a|)·a/|a|
		uc := complex(real(u), -imag(u))
		c := complex(cos, 0)
		phi[i] = c*pi - uc*pj
		phi[j] = c*pj + u*pi
		if lam != nil {
			lam[i] = c*li - uc*lj
			lam[j] = c*lj + u*li
		}
	}
	return 2 * bracket
}

// pairCoeff evaluates a(i) = Σₜ cₜ·(−1)^{|i∧zₜ|}.
//
//vqesim:hotpath
func pairCoeff(i uint64, zs []uint64, cs []complex128) complex128 {
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

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
			d := imag(PairCoeff(i, zs, cs)) // a(i) = i·d
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
	r := rotor{theta: theta, lastMag2: -1}
	for rest := lo; rest < hi; rest++ {
		i := core.InsertZeroBit(rest, q)
		j := i ^ x
		if phi[i] == 0 && phi[j] == 0 && (lam == nil || lam[i] == 0 && lam[j] == 0) {
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

// RotatePairList is RotatePairs on an explicit pair list; at θ = 0 it is
// PairBracket, reading both vectors. A rotation counts as one in telemetry
// (there is no State to count a gate on), a bracket as none.
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
// cosine memoized on |a|²: the one copy behind both sweeps.
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

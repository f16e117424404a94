// Package core holds shared primitives used across the simulator stack:
// numeric tolerances, a deterministic splittable RNG, bit-twiddling helpers
// for amplitude indexing, and common error types.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Numeric tolerances used throughout the code base.
const (
	// Eps is the general-purpose absolute tolerance for comparing
	// floating-point quantities derived from double-precision amplitudes.
	Eps = 1e-10
	// CoeffEps is the threshold below which operator coefficients are
	// dropped during algebraic simplification (Pauli/fermionic algebra).
	CoeffEps = 1e-12
	// ChemicalAccuracy is 1 milli-hartree, the convergence target used by
	// the paper's Adapt-VQE experiment (Figure 5).
	ChemicalAccuracy = 1e-3
)

// ErrQubitOutOfRange reports a gate or measurement referencing a qubit
// index outside the register.
var ErrQubitOutOfRange = errors.New("core: qubit index out of range")

// ErrDimensionMismatch reports operands whose dimensions are incompatible.
var ErrDimensionMismatch = errors.New("core: dimension mismatch")

// ErrNotConverged reports an iterative method that exhausted its budget.
var ErrNotConverged = errors.New("core: iteration did not converge")

// ErrInvalidArgument reports a caller error detected at an API boundary.
var ErrInvalidArgument = errors.New("core: invalid argument")

// QubitError wraps ErrQubitOutOfRange with context.
func QubitError(q, n int) error {
	return fmt.Errorf("%w: qubit %d on %d-qubit register", ErrQubitOutOfRange, q, n)
}

// AlmostEqual reports whether a and b differ by less than tol.
func AlmostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) < tol
}

// AlmostEqualC reports whether complex values a and b differ by less than
// tol in modulus.
func AlmostEqualC(a, b complex128, tol float64) bool {
	d := a - b
	return math.Hypot(real(d), imag(d)) < tol
}

// Dim returns the Hilbert-space dimension 2^n for an n-qubit register.
// It panics for n < 0 or n > 62 (which would overflow the index space).
func Dim(n int) int {
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("core: invalid qubit count %d", n))
	}
	return 1 << uint(n)
}

// BitSet reports whether bit q of index x is set.
func BitSet(x uint64, q int) bool { return x>>uint(q)&1 == 1 }

// FlipBit returns x with bit q flipped.
func FlipBit(x uint64, q int) uint64 { return x ^ 1<<uint(q) }

// SetBit returns x with bit q set to v.
func SetBit(x uint64, q int, v bool) uint64 {
	if v {
		return x | 1<<uint(q)
	}
	return x &^ (1 << uint(q))
}

// InsertZeroBit inserts a zero bit at position q, shifting higher bits
// left. It maps a (n-1)-bit "rest" index to the n-bit index whose bit q is
// zero — the standard trick for iterating amplitude pairs touched by a
// single-qubit gate.
func InsertZeroBit(rest uint64, q int) uint64 {
	mask := uint64(1)<<uint(q) - 1
	return (rest&^mask)<<1 | rest&mask
}

// InsertTwoZeroBits inserts zero bits at positions p and q (positions in
// the final index, p != q), used for two-qubit gate enumeration.
func InsertTwoZeroBits(rest uint64, p, q int) uint64 {
	if p > q {
		p, q = q, p
	}
	x := InsertZeroBit(rest, p)
	return InsertZeroBit(x, q)
}

// RNG is a small, fast, deterministic splittable pseudo-random generator
// (splitmix64 core). It is not cryptographically secure; it exists so that
// simulations are reproducible across runs and so worker goroutines can
// draw from independent streams without locking.
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Split returns a new generator whose stream is independent of r's.
func (r *RNG) Split() *RNG { return &RNG{s: r.Uint64()*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("core: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			v := r.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

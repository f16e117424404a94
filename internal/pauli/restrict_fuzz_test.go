package pauli_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/pauli"
)

// restrictZeroTol is the coupling magnitude Restrict counts as none.
const restrictZeroTol = 1e-12

// fuzzSectorOperator draws an operator on n qubits from rng: the
// Jordan–Wigner image of random one- and two-body ladder products, which
// conserves particle number, with complex coefficients when phased (its
// odd-Y strings then carry real weight, and the matrix complex entries),
// plus, unless conserving, a few Pauli strings drawn at random, half of
// them flipping one or two qubits (a group small enough to be sealed by
// its patterns rather than checked state by state).
func fuzzSectorOperator(rng *core.RNG, n, count int, conserving, phased bool) *pauli.Op {
	coeff := func() complex128 {
		if phased {
			return complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return complex(rng.NormFloat64(), 0)
	}
	f := fermion.NewOp()
	for range count {
		p, q := rng.Intn(n), rng.Intn(n)
		if rng.Intn(2) == 0 || n < 2 {
			f.Add(fermion.OneBody(p, q), coeff())
			continue
		}
		r, s := rng.Intn(n), rng.Intn(n)
		if p != q && r != s {
			f.Add(fermion.TwoBody(p, q, r, s), coeff())
		}
	}
	op := f.JordanWigner()
	if !conserving {
		mask := uint64(1)<<uint(n) - 1
		for k := 1 + rng.Intn(3); k > 0; k-- {
			x := rng.Uint64() & mask
			if rng.Intn(2) == 0 {
				x = 1<<uint(rng.Intn(n)) | 1<<uint(rng.Intn(n))
			}
			op.Add(pauli.String{X: x, Z: rng.Uint64() & mask}, coeff())
		}
	}
	return op
}

// FuzzRestrict restricts random operators on up to 12 qubits to a random
// particle-number sector and holds the restriction to Plan.MatVec on every
// sector basis vector: each column equals the image inside the sector to
// the bit (a coupling at or below restrictZeroTol stored as none), the
// restriction is rejected exactly when some image has a coupling outside
// the sector, and the values are stored real exactly when every stored
// one has imaginary part 0. Plain `go test` replays the committed corpus
// in testdata/fuzz; `make fuzz-smoke` explores beyond it.
func FuzzRestrict(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, width, count uint8, conserving, phased bool) {
		n := 1 + int(width)%12
		rng := core.NewRNG(seed)
		ne := rng.Intn(n + 1)
		plan := pauli.NewPlan(fuzzSectorOperator(rng, n, 1+int(count)%24, conserving, phased))
		sector, err := pauli.Sector(n, ne)
		if err != nil {
			t.Fatal(err)
		}
		m, restrictErr := plan.Restrict(sector)
		if restrictErr != nil && !errors.Is(restrictErr, core.ErrInvalidArgument) {
			t.Fatalf("Restrict: %v, want ErrInvalidArgument or nil", restrictErr)
		}

		dim := sector.Dim()
		in, full := make([]complex128, 1<<uint(n)), make([]complex128, 1<<uint(n))
		unit, col := make([]complex128, dim), make([]complex128, dim)
		leaks, allReal := false, true
		for p, k := range sector.Basis() {
			in[k] = 1
			plan.MatVec(full, in, nil)
			in[k] = 0
			if m != nil {
				unit[p] = 1
				m.MatVec(col, unit, nil)
				unit[p] = 0
			}
			for j, a := range full {
				moves := real(a)*real(a)+imag(a)*imag(a) > restrictZeroTol*restrictZeroTol
				r, inside := sector.Position(uint64(j))
				switch {
				case !inside:
					leaks = leaks || moves
				case !moves:
					if m != nil && col[r] != 0 {
						t.Fatalf("n=%d ne=%d: entry (%#b, %#b) = %v restricted, %v (none) in full", n, ne, j, k, col[r], a)
					}
				default:
					allReal = allReal && imag(a) == 0
					if m != nil && !sameBits(col[r], a) {
						t.Fatalf("n=%d ne=%d: entry (%#b, %#b) = %v restricted, %v in full", n, ne, j, k, col[r], a)
					}
				}
			}
		}
		if leaks != (restrictErr != nil) {
			t.Fatalf("n=%d ne=%d: some image leaves the sector: %v; Restrict error: %v", n, ne, leaks, restrictErr)
		}
		if m != nil && m.Real() != allReal {
			t.Fatalf("n=%d ne=%d: stored real %v, every entry real %v", n, ne, m.Real(), allReal)
		}
	})
}

// sameBits reports whether a and b have the same bits, signed zeros included.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

package pauli

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// hoppingModel is a number-conserving observable on an n-qubit chain —
// nearest-neighbour hops (XX + YY)/2 with random amplitudes, Z and ZZ
// terms — and the number-conserving rotations i·(XY − YX)/2 between
// neighbours as generators.
func hoppingModel(t *testing.T, rng *core.RNG, n int) (*Plan, []*Plan) {
	t.Helper()
	h := NewOp()
	var gens []*Plan
	single := func(p byte, q int) String {
		s, err := Single(p, q)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for q := 0; q < n; q++ {
		h.Add(single('Z', q), complex(rng.NormFloat64(), 0))
		if q+1 == n {
			break
		}
		hop := complex(0.5*rng.NormFloat64(), 0)
		xx, _ := single('X', q).Mul(single('X', q+1))
		yy, _ := single('Y', q).Mul(single('Y', q+1))
		zz, _ := single('Z', q).Mul(single('Z', q+1))
		xy, _ := single('X', q).Mul(single('Y', q+1))
		yx, _ := single('Y', q).Mul(single('X', q+1))
		h.Add(xx, hop).Add(yy, hop).Add(zz, complex(rng.NormFloat64(), 0))
		g, err := NewGenerator([]Term{{Coeff: 0.5i, P: xy}, {Coeff: -0.5i, P: yx}})
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	return NewPlan(h), gens
}

// embed scatters a vector over sp into the full space.
func embed(sp *Subspace, n int, v []complex128) []complex128 {
	out := make([]complex128, 1<<uint(n))
	sp.Scatter(out, v)
	return out
}

// fullSpace is all of n qubits' basis as a Subspace — the closure of |0⟩
// under a transverse field — in which a position is its basis state.
func fullSpace(t *testing.T, n int) *Subspace {
	t.Helper()
	field := NewOp()
	for q := 0; q < n; q++ {
		x, err := Single('X', q)
		if err != nil {
			t.Fatal(err)
		}
		field.Add(x, 1)
	}
	sp := NewSubspace(0, NewPlan(field))
	for p, i := range sp.basis {
		if uint64(p) != i {
			t.Fatalf("full space: position %d holds %#b", p, i)
		}
	}
	return sp
}

// randomOver returns a normalized random vector.
func randomOver(rng *core.RNG, dim int) []complex128 {
	v := make([]complex128, dim)
	norm := 0.0
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
	}
	for i := range v {
		v[i] /= complex(math.Sqrt(norm), 0)
	}
	return v
}

// TestSubspaceIsTheNumberSector: the closure of a determinant under a
// number-conserving observable and rotations is its particle-number
// sector, in ascending order, and restricted to it H·φ, exp(θ·A) and the
// brackets are the full-space ones entry for entry: H·φ and the bracket
// against Plan.MatVec and Plan.Bracket on 2ⁿ, exp(θ·A) against the same
// generator's pairs over all 2ⁿ states.
func TestSubspaceIsTheNumberSector(t *testing.T) {
	const n, ref = 6, 0b000111
	rng := core.NewRNG(26)
	h, gens := hoppingModel(t, rng, n)
	sp := NewSubspace(ref, append(gens, h)...)
	if sp.Dim() != 20 {
		t.Fatalf("closure %v, want the C(6,3) = 20 three-particle states", sp)
	}
	for p, i := range sp.basis {
		if bits.OnesCount64(i) != 3 || (p > 0 && sp.basis[p-1] >= i) {
			t.Fatalf("basis[%d] = %#b: not an ascending list of three-particle states", p, i)
		}
		if at, ok := sp.Position(i); !ok || at != p {
			t.Fatalf("Position(%#b) = %d, %v; want %d", i, at, ok, p)
		}
	}
	if _, ok := sp.Position(0b001111); ok {
		t.Error("a four-particle state has a position")
	}

	hs, err := h.Restrict(sp)
	if err != nil {
		t.Fatal(err)
	}
	phi, lam := randomOver(rng, sp.Dim()), randomOver(rng, sp.Dim())
	got := make([]complex128, sp.Dim())
	hs.MatVec(got, phi, nil)
	want := make([]complex128, 1<<n)
	h.MatVec(want, embed(sp, n, phi), nil)
	for j, w := range want {
		if p, inside := sp.Position(uint64(j)); inside && got[p] != w {
			t.Errorf("(H·φ)[%#b] = %v restricted, %v in full", j, got[p], w)
		} else if !inside && w != 0 {
			t.Errorf("H·φ leaves the sector at %#b: %v", j, w)
		}
	}

	full := fullSpace(t, n)
	for k, g := range gens {
		ps, err := g.RestrictPairs(sp)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := g.RestrictPairs(full)
		if err != nil {
			t.Fatal(err)
		}
		if ps.NumGroups() != g.NumGroups() {
			t.Errorf("generator %d: %d groups restricted, %d in full", k, ps.NumGroups(), g.NumGroups())
		}
		s, err := state.FromAmplitudes(embed(sp, n, phi), state.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fullLam := embed(sp, n, lam)
		theta := rng.NormFloat64()
		if got, want := ps.Exp(phi, lam, 0), g.Bracket(s, fullLam); got != want {
			t.Errorf("generator %d: bracket %v restricted, %v in full", k, got, want)
		}
		fullPhi := s.Amplitudes()
		if got, want := ps.Exp(phi, lam, theta), pf.Exp(fullPhi, fullLam, theta); got != want {
			t.Errorf("generator %d: Exp returned %v restricted, %v in full", k, got, want)
		}
		for i := range fullPhi {
			p, inside := sp.Position(uint64(i))
			if !inside && (fullPhi[i] != 0 || fullLam[i] != 0) {
				t.Fatalf("generator %d: exp(θ·A) leaves the sector at %#b", k, i)
			}
			if inside && (phi[p] != fullPhi[i] || lam[p] != fullLam[i]) {
				t.Fatalf("generator %d: exp(θ·A) differs at %#b: φ %v vs %v, λ %v vs %v",
					k, i, phi[p], fullPhi[i], lam[p], fullLam[i])
			}
		}
	}
}

// TestRestrictRejectsLeaks: an operator that would carry amplitude out of
// the subspace cannot be restricted to it — an error, never a truncation.
func TestRestrictRejectsLeaks(t *testing.T) {
	const n, ref = 4, 0b0011
	h, gens := hoppingModel(t, core.NewRNG(7), n)
	sp := NewSubspace(ref, append(gens, h)...)
	if sp.Dim() != 6 {
		t.Fatalf("closure %v, want 6 states", sp)
	}
	field := NewPlan(NewOp().Add(MustParse("XIII"), 0.3).Add(MustParse("ZZII"), 1))
	if _, err := field.Restrict(sp); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("Restrict of a transverse field: %v, want ErrInvalidArgument", err)
	}
	flip, err := NewGenerator([]Term{{Coeff: 1i, P: MustParse("YIII")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flip.RestrictPairs(sp); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("RestrictPairs of a one-qubit rotation: %v, want ErrInvalidArgument", err)
	}
	if _, err := h.RestrictPairs(sp); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("RestrictPairs of an observable plan: %v, want ErrInvalidArgument", err)
	}
	// Closed under them instead, the space is all of it.
	if got := NewSubspace(ref, h, flip, field).Dim(); got != 1<<n {
		t.Errorf("closure under symmetry-breaking terms has %d states, want all %d", got, 1<<n)
	}
}

// TestSubMatrixMatVecPartitionIndependent: above tuning.ReduceParallel rows
// the mat-vec runs on the pool, and lands on the inline result to the bit.
func TestSubMatrixMatVecPartitionIndependent(t *testing.T) {
	const n, ref = 15, 0b000000001111111
	rng := core.NewRNG(15)
	h, _ := hoppingModel(t, rng, n)
	sp := NewSubspace(ref, h)
	if sp.Dim() != 6435 {
		t.Fatalf("closure %v, want C(15,7) = 6435 states", sp)
	}
	hs, err := h.Restrict(sp)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Dim() != sp.Dim() || hs.NNZ() < sp.Dim() {
		t.Fatalf("%d rows, %d coefficients for %d states", hs.Dim(), hs.NNZ(), sp.Dim())
	}
	phi := randomOver(rng, sp.Dim())
	inline, pooled := make([]complex128, sp.Dim()), make([]complex128, sp.Dim())
	hs.MatVec(inline, phi, nil)
	pool := state.NewPool(3)
	defer pool.Close()
	hs.MatVec(pooled, phi, pool)
	for r := range inline {
		if inline[r] != pooled[r] {
			t.Fatalf("row %d: %v inline, %v over the pool", r, inline[r], pooled[r])
		}
	}
}

package pauli

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/telemetry"
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

// TestSubspaceOfMatchesClosure: the three-particle sector listed in
// ascending order is the closure NewSubspace finds, and the restricted
// matrix exported to CSR multiplies as MatVec does, to the bit.
func TestSubspaceOfMatchesClosure(t *testing.T) {
	const n, ref = 6, 0b000111
	rng := core.NewRNG(36)
	h, gens := hoppingModel(t, rng, n)
	closed := NewSubspace(ref, append(gens, h)...)
	var listed []uint64
	for i := uint64(0); i < 1<<n; i++ {
		if bits.OnesCount64(i) == 3 {
			listed = append(listed, i)
		}
	}
	sp := SubspaceOf(listed)
	if !slices.Equal(sp.basis, closed.basis) {
		t.Fatalf("SubspaceOf basis %v, closure %v", sp.basis, closed.basis)
	}
	hs, err := h.Restrict(sp)
	if err != nil {
		t.Fatal(err)
	}
	phi := randomOver(rng, sp.Dim())
	want := make([]complex128, sp.Dim())
	hs.MatVec(want, phi, nil)
	csr := hs.Sparse()
	if csr.N != hs.Dim() || csr.NNZ() != hs.NNZ() {
		t.Fatalf("CSR %d rows, %d nonzeros; restricted %d, %d", csr.N, csr.NNZ(), hs.Dim(), hs.NNZ())
	}
	for r, got := range csr.MulVec(phi) {
		if got != want[r] {
			t.Fatalf("row %d: %v from CSR, %v from MatVec", r, got, want[r])
		}
	}
}

// TestSectorRanks: Sector(n, ne) lists every n-bit state with ne ones in
// ascending order, C(n, ne) of them — C(12, 8) = 495 determinants for
// 12-qubit water — and each state's rank is its position; a state of
// another popcount, or one reaching past n qubits, has none. A sector
// that is not one, or that would outgrow int32 positions, is rejected.
func TestSectorRanks(t *testing.T) {
	if binomial[12][8] != 495 {
		t.Errorf("C(12, 8) = %d, want 495", binomial[12][8])
	}
	for n := 0; n <= 12; n++ {
		for ne := 0; ne <= n; ne++ {
			sp, err := Sector(n, ne)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for i := uint64(0); i < 1<<uint(n); i++ {
				if bits.OnesCount64(i) == ne {
					want = append(want, i)
				}
			}
			if !slices.Equal(sp.Basis(), want) || uint64(sp.Dim()) != binomial[n][ne] {
				t.Fatalf("Sector(%d, %d) = %v, want the %d states %v", n, ne, sp.Basis(), binomial[n][ne], want)
			}
			for i := uint64(0); i < 1<<uint(n+1); i++ {
				p, ok := sp.Position(i)
				if at, in := slices.BinarySearch(want, i); ok != in || (ok && p != at) {
					t.Fatalf("Sector(%d, %d): Position(%#b) = %d, %v; want %d, %v", n, ne, i, p, ok, at, in)
				}
			}
		}
	}
	sp, err := Sector(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := sp.Position(1<<63 | 1<<62); !ok || p != sp.Dim()-1 {
		t.Errorf("Sector(64, 2): top state at %d, %v; want %d", p, ok, sp.Dim()-1)
	}
	for _, c := range [][2]int{{-1, 0}, {4, 5}, {4, -1}, {65, 1}, {34, 17}} {
		if _, err := Sector(c[0], c[1]); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("Sector(%d, %d): %v, want ErrInvalidArgument", c[0], c[1], err)
		}
	}
}

// twoChainModel is hoppingModel on two 4-qubit chains that nothing hops
// between, coupled by ZZ: it conserves each chain's particle number, so
// from two particles on each the block is C(4,2)² = 36 of the C(8,4) = 70
// sector states. With phase, every hop also carries a Hermitian
// (XY − YX)·s term, which makes H's couplings complex.
func twoChainModel(t *testing.T, rng *core.RNG, phase bool) (*Plan, []*Plan) {
	t.Helper()
	h := NewOp()
	var gens []*Plan
	for q := 0; q < 8; q++ {
		h.Add(String{Z: 1 << uint(q)}, complex(rng.NormFloat64(), 0))
		if q < 4 {
			h.Add(String{Z: 1<<uint(q) | 1<<uint(q+4)}, complex(rng.NormFloat64(), 0))
		}
		if q == 3 || q == 7 {
			continue
		}
		x := uint64(0b11) << uint(q)
		lo, hi := uint64(1)<<uint(q), uint64(1)<<uint(q+1)
		hop := complex(0.5*rng.NormFloat64(), 0)
		h.Add(String{X: x}, hop).Add(String{X: x, Z: x}, hop)
		if phase {
			s := complex(0.5*rng.NormFloat64(), 0)
			h.Add(String{X: x, Z: hi}, s).Add(String{X: x, Z: lo}, -s)
		}
		g, err := NewGenerator([]Term{{Coeff: 0.5i, P: String{X: x, Z: hi}}, {Coeff: -0.5i, P: String{X: x, Z: lo}}})
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	return NewPlan(h), gens
}

// TestBlockMatchesClosure: the block cut out of the sector restriction is
// the closure NewSubspace finds, in the same order, and its H and pairs
// compute what Restrict and RestrictPairs on that closure compute, to the
// bit: H·φ, equal also to Plan.MatVec on 2ⁿ, and exp(θ·A) with its
// bracket. A real H is stored real, one with a hopping phase complex.
func TestBlockMatchesClosure(t *testing.T) {
	const n, ref = 8, 0b00110011
	for _, phase := range []bool{false, true} {
		rng := core.NewRNG(8)
		h, gens := twoChainModel(t, rng, phase)
		sector, hs, err := h.RestrictSector(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]*Pairs, len(gens))
		for k, g := range gens {
			if pairs[k], err = g.RestrictPairs(sector); err != nil {
				t.Fatal(err)
			}
		}
		block, bh, bpairs := sector.Block(ref, hs, pairs)
		closed := NewSubspace(ref, append(gens, h)...)
		if block.Dim() != 36 || !slices.Equal(block.basis, closed.basis) {
			t.Fatalf("phase %v: block %v, closure %v", phase, block.basis, closed.basis)
		}
		for p, i := range closed.basis {
			if at, ok := block.Position(i); !ok || at != p {
				t.Fatalf("phase %v: block Position(%#b) = %d, %v; want %d", phase, i, at, ok, p)
			}
		}
		if _, ok := block.Position(0b00010111); ok {
			t.Errorf("phase %v: a sector state outside the block has a position", phase)
		}
		ch, err := h.Restrict(closed)
		if err != nil {
			t.Fatal(err)
		}
		if hs.Real() == phase || bh.Real() == phase || ch.Real() == phase {
			t.Errorf("phase %v: stored real: sector %v, block %v, closure %v", phase, hs.Real(), bh.Real(), ch.Real())
		}
		if bh.NNZ() != ch.NNZ() {
			t.Errorf("phase %v: block %d coefficients, closure %d", phase, bh.NNZ(), ch.NNZ())
		}
		phi, lam := randomOver(rng, block.Dim()), randomOver(rng, block.Dim())
		got, want := make([]complex128, block.Dim()), make([]complex128, block.Dim())
		bh.MatVec(got, phi, nil)
		ch.MatVec(want, phi, nil)
		full := make([]complex128, 1<<n)
		h.MatVec(full, embed(block, n, phi), nil)
		for p, i := range block.basis {
			if got[p] != want[p] || got[p] != full[i] {
				t.Fatalf("phase %v: (H·φ)[%#b] = %v from the block, %v from the closure, %v on 2ⁿ", phase, i, got[p], want[p], full[i])
			}
		}
		for k, g := range gens {
			cp, err := g.RestrictPairs(closed)
			if err != nil {
				t.Fatal(err)
			}
			theta := rng.NormFloat64()
			phiB, lamB := slices.Clone(phi), slices.Clone(lam)
			if got, want := bpairs[k].Exp(phiB, lamB, theta), cp.Exp(phi, lam, theta); got != want || !slices.Equal(phiB, phi) || !slices.Equal(lamB, lam) {
				t.Fatalf("phase %v: generator %d: block Exp %v, closure %v", phase, k, got, want)
			}
		}
	}
}

// TestRestrictSectorOnce: a plan restricts itself to a sector once, however
// many readers ask and however concurrently, and a different sector is a
// restriction of its own.
func TestRestrictSectorOnce(t *testing.T) {
	h, _ := twoChainModel(t, core.NewRNG(9), true)
	withRestrictCount(t, func() {
		var wg sync.WaitGroup
		got := make([]*SubMatrix, 4)
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, got[k], _ = h.RestrictSector(8, 4)
			}()
		}
		wg.Wait()
		for _, m := range got[1:] {
			if m != got[0] {
				t.Error("readers got different restrictions")
			}
		}
		if _, _, err := h.RestrictSector(8, 3); err != nil {
			t.Fatal(err)
		}
	}, 2)
}

// withRestrictCount runs f with telemetry on and requires it to restrict
// want plans.
func withRestrictCount(t *testing.T, f func(), want int64) {
	t.Helper()
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	telemetry.Reset()
	f()
	if got := telemetry.Capture().Counters["pauli.restrict"]; got != want {
		t.Errorf("%d restrictions, want %d", got, want)
	}
}

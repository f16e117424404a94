package pauli

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/linalg"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// This file restricts plans to an invariant subspace. An X-mask group sends
// basis state i to i⊕x alone, with coefficient a(i) = Σₜ cₜ·(−1)^{|i∧zₜ|},
// and for symmetry-respecting operators most of those cancel to zero: a
// number- and spin-conserving Hamiltonian and excitation pool reach
// C(6,4)² = 225 of 12-qubit water's 4 096 basis states from Hartree–Fock.
// The closure S of the reference under the nonzero transitions is mapped
// into itself by H and every exp(θ·A), so the ansatz state, H·φ and the
// brackets are |S|-long vectors; on S an observable is a sparse matrix and
// a generator group an explicit list of 2×2 blocks.

// subspaceZeroTol is the magnitude at or below which a transition
// coefficient is cancellation residue rather than a coupling. Measured on
// 12-qubit water: the smallest coefficient above it is 2.6e-6 and nothing
// lies between 1e-14 and that.
const subspaceZeroTol = 1e-12

// coupling evaluates a(i), summed as MatVec and PairBracket sum it, and
// reports whether the group moves basis state i at all.
func (g *xGroup) coupling(i uint64) (complex128, bool) {
	a := state.PairCoeff(i, g.zs, g.cs)
	return a, real(a)*real(a)+imag(a)*imag(a) > subspaceZeroTol*subspaceZeroTol
}

// Subspace is an ordered set of computational-basis states, with the
// position of each state in that order. Immutable after construction.
//
// A closure (NewSubspace) or a listed basis (SubspaceOf) finds positions
// through a map. A particle-number sector (Sector) needs none: its states
// are the n-bit masks with ne ones in ascending order, so a state's
// position is its combinatorial rank, and a state is outside exactly when
// its popcount is not ne. A block cut from a sector (Block) keeps the rank
// and reads its positions from a table over the sector's ranks.
type Subspace struct {
	basis []uint64         // ascending
	pos   map[uint64]int32 // nil when positions come by rank
	// n and ne are the sector's qubits and ones when pos is nil; within,
	// for a block, holds the position of each sector rank, −1 outside.
	n, ne  int
	within []int32
	// rankTab[rankOff[c] + m<<8 + v] is what chunk c of a state — its bits
	// 8c … 8c+7, reading v — adds to the state's rank when m ones lie below
	// the chunk: Σₜ C(8c + bₜ, m + t) over v's set bits b₁ < b₂ < …. Row m
	// of chunk c exists for m ≤ min(ne, 8c); an entry no sector state
	// reads is 0.
	rankTab []uint32
	rankOff []int
}

// binomial[n][k] is C(n, k) for n ≤ 64: the terms of a rank. Every entry
// is at most C(64, 32) < 2⁶³, so the table cannot overflow.
var binomial = func() (t [65][65]uint64) {
	for n := range t {
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// Sector is the ne-particle sector of n qubits: every n-bit basis state
// with ne bits set, in ascending order. A number-conserving operator under
// Jordan–Wigner maps it into itself, so its states are the determinants
// of an FCI. n must be at most 64 and the sector at most 2³¹−1 states, or
// it is rejected with core.ErrInvalidArgument.
func Sector(n, ne int) (*Subspace, error) {
	if n < 0 || n > 64 || ne < 0 || ne > n || binomial[n][ne] > math.MaxInt32 {
		return nil, fmt.Errorf("%w: pauli: no %d-particle sector of %d qubits with at most 2³¹−1 states", core.ErrInvalidArgument, ne, n)
	}
	sp := &Subspace{basis: make([]uint64, binomial[n][ne]), n: n, ne: ne, rankOff: make([]int, (n+7)/8)}
	size := 0
	for c := range sp.rankOff {
		sp.rankOff[c] = size
		size += (min(ne, 8*c) + 1) << 8
	}
	sp.rankTab = make([]uint32, size)
	for c, off := range sp.rankOff {
		for m := 0; m <= min(ne, 8*c); m++ {
			row := sp.rankTab[off+m<<8 : off+(m+1)<<8]
			for v := 1; v < 256; v++ {
				// v adds its highest bit hb, the t-th of its ones, to what
				// v without it adds; a sector state holding v here needs
				// room above hb for its remaining ne−m−t ones.
				hb, t := bits.Len(uint(v))-1, bits.OnesCount(uint(v))
				if m+t <= ne && ne-m-t <= n-(8*c+hb+1) {
					row[v] = row[v&^(1<<uint(hb))] + uint32(binomial[8*c+hb][m+t])
				}
			}
		}
	}
	// Gosper's hack steps to the next larger mask with the same popcount.
	v := uint64(1)<<uint(ne) - 1
	for p := range sp.basis {
		sp.basis[p] = v
		if v == 0 {
			break
		}
		t := v | (v - 1)
		v = (t + 1) | (((^t & (t + 1)) - 1) >> uint(bits.TrailingZeros64(v)+1))
	}
	return sp, nil
}

// rank is i's position in its sector, Σₜ C(bₜ, t) over the positions
// b₁ < b₂ < … of its set bits, read chunk by chunk from rankTab; false
// when i is outside the sector.
func (sp *Subspace) rank(i uint64) (int, bool) {
	if i>>uint(sp.n) != 0 || bits.OnesCount64(i) != sp.ne {
		return 0, false
	}
	mRanks.Inc()
	r, m := 0, 0
	for c, off := range sp.rankOff {
		v := int(i >> uint(8*c) & 0xff)
		r += int(sp.rankTab[off+m<<8+v])
		m += bits.OnesCount8(uint8(v))
	}
	return r, true
}

// stepRank is the rank of i⊕x for a state i of rank r that x keeps in
// sector sp, where x's bits lie in chunks lo … hi: only those chunks'
// parts of the rank change, since outside them the bits and the count of
// ones below are i's.
func (sp *Subspace) stepRank(i uint64, r int, x uint64, lo, hi int) int {
	d := i ^ x
	mi := bits.OnesCount64(i & (1<<uint(8*lo) - 1))
	md := mi
	for c := lo; c <= hi; c++ {
		off := sp.rankOff[c]
		vi, vd := int(i>>uint(8*c)&0xff), int(d>>uint(8*c)&0xff)
		r += int(sp.rankTab[off+md<<8+vd]) - int(sp.rankTab[off+mi<<8+vi])
		mi += bits.OnesCount8(uint8(vi))
		md += bits.OnesCount8(uint8(vd))
	}
	return r
}

// NewSubspace closes {ref} under the nonzero transitions of every X-mask
// group of plans (breadth first: the basis under construction is the
// queue). Operators that conserve nothing close it over the whole space.
func NewSubspace(ref uint64, plans ...*Plan) *Subspace {
	sp := &Subspace{basis: []uint64{ref}, pos: map[uint64]int32{ref: 0}}
	for head := 0; head < len(sp.basis); head++ {
		i := sp.basis[head]
		for _, pl := range plans {
			for gi := range pl.groups {
				g := &pl.groups[gi]
				j := i ^ g.x
				if _, seen := sp.pos[j]; seen {
					continue
				}
				if _, moves := g.coupling(i); !moves {
					continue
				}
				sp.pos[j] = 0
				sp.basis = append(sp.basis, j)
			}
		}
	}
	sort.Slice(sp.basis, func(a, b int) bool { return sp.basis[a] < sp.basis[b] })
	for p, i := range sp.basis {
		sp.pos[i] = int32(p)
	}
	return sp
}

// SubspaceOf is the subspace spanned by basis, which must be strictly
// ascending, in that order; it keeps the slice. Unlike NewSubspace it is
// not closed under anything: Restrict rejects a plan that leaves it.
func SubspaceOf(basis []uint64) *Subspace {
	sp := &Subspace{basis: basis, pos: make(map[uint64]int32, len(basis))}
	for p, i := range basis {
		sp.pos[i] = int32(p)
	}
	return sp
}

// Dim is the number of basis states.
func (sp *Subspace) Dim() int { return len(sp.basis) }

// Basis is the states in position order. The slice is shared and must not
// be modified.
func (sp *Subspace) Basis() []uint64 { return sp.basis }

// Position returns where basis state i sits in a vector over the subspace.
func (sp *Subspace) Position(i uint64) (int, bool) {
	if sp.pos != nil {
		p, ok := sp.pos[i]
		return int(p), ok
	}
	r, ok := sp.rank(i)
	if !ok || sp.within == nil {
		return r, ok
	}
	p := sp.within[r]
	return int(p), p >= 0
}

// Scatter writes v, a vector over the subspace, into the full-space vector
// dst by basis state: dst[i] = v[Position(i)] inside, 0 outside.
func (sp *Subspace) Scatter(dst, v []complex128) {
	clear(dst)
	for p, i := range sp.basis {
		dst[i] = v[p]
	}
}

// sectorGroup is an X-mask group compiled for a walk over a sector's
// states: which states it keeps inside, whether any can leak, and, where
// they are few, its couplings by pattern.
type sectorGroup struct {
	x uint64
	// k is |x|: x keeps a sector state inside exactly when the state holds
	// k/2 of x's bits. It is −1 when no sector state can (x reaches past
	// the register, |x| is odd, or no state has room for the rest of its
	// ones), and x only moves states out.
	k      int
	lo, hi int  // the rank chunks x's bits lie in; lo > hi for x = 0
	sealed bool // no sector state leaks under x: the per-state check is spared
	// When every Z mask of the group differs from the first only on bits
	// of x, at most four, a(i) depends on i only through its pattern on x
	// and the parity of i∧outZ, outZ being the first Z mask outside x: each
	// term's sign (−1)^{|i∧z|} splits alike into the two. memoed is then
	// set, and memo holds a(i) at slot[pattern]<<1 | parity for the
	// patterns with k/2 ones, the sources x moves within the sector; xbits
	// lists x's bits, padded with a bit outside x. Otherwise a(i) is
	// evaluated.
	memoed bool
	outZ   uint64
	xbits  [4]uint8
	slot   [16]uint8
	memo   [12]complex128
	g      *xGroup
}

// compile prepares group g for a walk over sector sp, adding to *couplings
// the coefficients it evaluates.
func (sp *Subspace) compile(s *sectorGroup, g *xGroup, couplings *int) {
	x, k := g.x, bits.OnesCount64(g.x)
	*s = sectorGroup{x: x, k: k, lo: bits.TrailingZeros64(x) / 8, hi: (bits.Len64(x) - 1) / 8, g: g}
	if x == 0 {
		s.lo, s.hi = 0, -1
	}
	if x>>uint(sp.n) != 0 || k%2 != 0 || sp.ne < k/2 || sp.ne-k/2 > sp.n-k {
		s.k = -1
	}
	patterned := x>>uint(sp.n) == 0 && k < bits.Len(uint(len(sp.basis))) // 2^k ≤ the states
	for _, z := range g.zs {
		patterned = patterned && (z^g.zs[0])&^x == 0
	}
	if !patterned {
		return
	}
	s.sealed = sp.seals(g, couplings)
	if s.k < 0 || k > len(s.xbits) {
		return
	}
	s.memoed = true
	pad := uint8(bits.TrailingZeros64(^x))
	for b := range s.xbits {
		s.xbits[b] = pad
	}
	for b, q := 0, x; q != 0; b, q = b+1, q&(q-1) {
		s.xbits[b] = uint8(bits.TrailingZeros64(q))
	}
	s.outZ = g.zs[0] &^ x
	next := 0
	for p := x; ; p = (p - 1) & x { // every submask of x
		if 2*bits.OnesCount64(p) == k {
			e := next << 1
			s.slot[s.pattern(p)] = uint8(next)
			next++
			s.memo[e] = state.PairCoeff(p, g.zs, g.cs)
			*couplings++
			if s.outZ != 0 {
				s.memo[e|1] = state.PairCoeff(p|s.outZ&-s.outZ, g.zs, g.cs)
				*couplings++
			}
		}
		if p == 0 {
			return
		}
	}
}

// pattern gathers i's bits on x into the low k bits.
func (s *sectorGroup) pattern(i uint64) int {
	i, b := i&s.x, s.xbits
	return int(i>>b[0]&1 | i>>b[1]&1<<1 | i>>b[2]&1<<2 | i>>b[3]&1<<3)
}

// keeps reports whether x keeps sector state i inside the sector.
func (s *sectorGroup) keeps(i uint64) bool {
	return s.k >= 0 && 2*bits.OnesCount64(i&s.x) == s.k
}

// source is a(i) and whether x moves i, for a source i that x keeps in
// the sector: from the memo when there is one, else evaluated and added
// to *couplings.
func (s *sectorGroup) source(i uint64, couplings *int) (complex128, bool) {
	if !s.memoed {
		*couplings++
		return s.g.coupling(i)
	}
	a := s.memo[int(s.slot[s.pattern(i)])<<1|bits.OnesCount64(i&s.outZ)&1]
	return a, real(a)*real(a)+imag(a)*imag(a) > subspaceZeroTol*subspaceZeroTol
}

// seals reports whether group g, whose Z masks differ only on bits of x,
// moves no state of sector sp out of it. Then a(j) is ±a(j∧x) to the bit,
// every term's sign flipping alike, so the 2^|x| patterns j∧x with
// |j∧x| ≠ |x|/2 that some sector state holds, the ones x moves out of the
// sector, decide it. The coefficients it evaluates are added to
// *couplings.
func (sp *Subspace) seals(g *xGroup, couplings *int) bool {
	x, k := g.x, bits.OnesCount64(g.x)
	for p := x; ; p = (p - 1) & x { // every submask of x
		ones := bits.OnesCount64(p)
		if 2*ones != k && ones <= sp.ne && sp.ne-ones <= sp.n-k {
			*couplings++
			if _, moves := g.coupling(p); moves {
				return false
			}
		}
		if p == 0 {
			return true
		}
	}
}

// leak is the error of restricting a plan that maps the subspace outside itself.
func leak(from, to uint64) error {
	return fmt.Errorf("%w: pauli: plan maps basis state %#b to %#b outside the subspace", core.ErrInvalidArgument, from, to)
}

// SubMatrix is an observable plan restricted to a subspace, in compressed
// sparse row form over positions. Its values are stored as float64 when
// every one has imaginary part exactly 0 (a real Hamiltonian's), and as
// complex128 otherwise; vectors are complex either way.
type SubMatrix struct {
	rowStart []int32 // row r holds entries [rowStart[r], rowStart[r+1])
	col      []int32
	re       []float64    // the values when all are real, else nil
	val      []complex128 // the values when one is not, else nil
}

// Restrict compiles the plan's matrix on sp. Row j lists its sources
// i = j⊕x in X-mask order — the order MatVec accumulates dst[j] in — so on
// a vector supported on sp the two agree entry for entry. A plan that maps
// a state of sp outside sp is rejected with core.ErrInvalidArgument.
func (pl *Plan) Restrict(sp *Subspace) (*SubMatrix, error) {
	mRestrict.Inc()
	bound := sp.entryBound(pl)
	m := &SubMatrix{rowStart: make([]int32, 1, len(sp.basis)+1), col: make([]int32, 0, bound), re: make([]float64, 0, bound)}
	if sp.pos == nil && sp.within == nil {
		if err := pl.restrictSector(sp, m); err != nil {
			return nil, err
		}
	} else {
		for _, j := range sp.basis {
			for gi := range pl.groups {
				g := &pl.groups[gi]
				i := j ^ g.x
				if p, inside := sp.Position(i); !inside {
					if _, moves := g.coupling(j); moves {
						return nil, leak(j, i)
					}
				} else if a, moves := g.coupling(i); moves {
					m.col = append(m.col, int32(p))
					m.add(a)
				}
			}
			m.rowStart = append(m.rowStart, int32(len(m.col)))
		}
	}
	// The bound also counts slots whose couplings cancel (a spin-conserving
	// H's spin flips, a quarter of water's), which a kept matrix drops.
	if slack := cap(m.col) - len(m.col); slack > len(m.col)/8 {
		m.col = append(make([]int32, 0, len(m.col)), m.col...)
		if m.val == nil {
			m.re = append(make([]float64, 0, len(m.re)), m.re...)
		} else {
			m.val = append(make([]complex128, 0, len(m.val)), m.val...)
		}
	}
	return m, nil
}

// restrictSector fills m with the rows of Restrict on sector sp. A row
// evaluates only the groups that keep it in the sector — the ones whose X
// mask it holds half of — and the unsealed ones it may leak through,
// testing each group against the row from scan, a compact copy that
// stays in cache. A kept source's position steps from the row's rank
// (stepRank), and a memoized group reads its coupling by pattern.
func (pl *Plan) restrictSector(sp *Subspace, m *SubMatrix) error {
	couplings, visits := 0, 0
	defer func() {
		mRestrictCouplings.Add(int64(couplings))
		mRestrictVisits.Add(int64(visits))
	}()
	type scanned struct {
		x      uint64
		k      int32
		sealed bool
	}
	walk := make([]sectorGroup, len(pl.groups))
	scan := make([]scanned, len(pl.groups))
	for gi := range pl.groups {
		sp.compile(&walk[gi], &pl.groups[gi], &couplings)
		scan[gi] = scanned{walk[gi].x, int32(walk[gi].k), walk[gi].sealed}
	}
	for r, j := range sp.basis {
		for w, c := range scan {
			if c.k < 0 || 2*bits.OnesCount64(j&c.x) != int(c.k) {
				if !c.sealed {
					visits++
					couplings++
					if _, moves := walk[w].g.coupling(j); moves {
						return leak(j, j^c.x)
					}
				}
				continue
			}
			visits++
			s := &walk[w]
			if a, moves := s.source(j^c.x, &couplings); moves {
				m.col = append(m.col, int32(sp.stepRank(j, r, c.x, s.lo, s.hi)))
				m.add(a)
			}
		}
		m.rowStart = append(m.rowStart, int32(len(m.col)))
	}
	return nil
}

// entryBound bounds the coefficients pl can have on sp, for presizing a
// restriction. On a sector it is exact up to cancelled couplings: group x,
// with k bits of its mask inside the register, keeps a state in the sector
// exactly when the state holds k/2 of them, which C(k, k/2)·C(n−k, ne−k/2)
// states do. Elsewhere it is the diagonal's share.
func (sp *Subspace) entryBound(pl *Plan) int {
	if sp.pos != nil || sp.within != nil {
		return len(sp.basis)
	}
	total := uint64(0)
	for gi := range pl.groups {
		x := pl.groups[gi].x
		k := bits.OnesCount64(x)
		if x>>uint(sp.n) != 0 || k%2 != 0 || sp.ne < k/2 || sp.ne-k/2 > sp.n-k {
			continue
		}
		total += binomial[k][k/2] * binomial[sp.n-k][sp.ne-k/2]
	}
	return int(total)
}

// add stores the next value, moving the stored ones to complex128 at the
// first with a nonzero imaginary part.
func (m *SubMatrix) add(a complex128) {
	if m.val == nil && imag(a) == 0 {
		m.re = append(m.re, real(a))
		return
	}
	if m.val == nil {
		m.val = make([]complex128, len(m.re), cap(m.re))
		for e, v := range m.re {
			m.val[e] = complex(v, 0)
		}
		m.re = nil
	}
	m.val = append(m.val, a)
}

// Real reports whether the values are stored as float64.
func (m *SubMatrix) Real() bool { return m.val == nil }

// value is stored coefficient e.
func (m *SubMatrix) value(e int32) complex128 {
	if m.val == nil {
		return complex(m.re[e], 0)
	}
	return m.val[e]
}

// Sparse exports the matrix in linalg's CSR form, rows in stored order so
// that MulVecTo sums each row as MatVec does. Complex values are shared
// with the result; neither may be modified.
func (m *SubMatrix) Sparse() *linalg.Sparse {
	s := &linalg.Sparse{N: m.Dim(), RowPtr: make([]int, len(m.rowStart)), ColIdx: make([]int, len(m.col)), Vals: m.val}
	if m.val == nil {
		s.Vals = make([]complex128, len(m.re))
		for e, v := range m.re {
			s.Vals[e] = complex(v, 0)
		}
	}
	for r, e := range m.rowStart {
		s.RowPtr[r] = int(e)
	}
	for e, c := range m.col {
		s.ColIdx[e] = int(c)
	}
	return s
}

// Dense expands the matrix, for the dense eigensolver on small sectors.
func (m *SubMatrix) Dense() *linalg.Matrix {
	d := linalg.NewMatrix(m.Dim(), m.Dim())
	for r := range m.Dim() {
		for e := m.rowStart[r]; e < m.rowStart[r+1]; e++ {
			d.Set(r, int(m.col[e]), m.value(e))
		}
	}
	return d
}

// Dim is the number of rows.
func (m *SubMatrix) Dim() int { return len(m.rowStart) - 1 }

// NNZ is the number of stored coefficients: the multiplies of one MatVec.
func (m *SubMatrix) NNZ() int { return len(m.col) }

// StoredBytes is the memory the column indices and values hold, the part
// of the matrix that grows with its coefficients: 12 bytes per coefficient
// stored real, 20 complex, and whatever capacity is left over.
func (m *SubMatrix) StoredBytes() int {
	return 4*cap(m.col) + 8*cap(m.re) + 16*cap(m.val)
}

// MatVec computes dst = H·src over the subspace, rows partitioned over pool
// from tuning.ReduceParallel rows up (nil runs inline). Each row is summed
// by one worker in stored order, so the result does not depend on the
// partition. dst and src have length Dim and must not alias.
func (m *SubMatrix) MatVec(dst, src []complex128, pool *state.Pool) {
	defer mPlanMatVec.Since(telemetry.Now())
	rows := uint64(m.Dim())
	if pool == nil || rows < tuning.ReduceParallel {
		m.matVecRows(dst, src, 0, rows)
		return
	}
	pool.Run(rows, pool.Workers(), func(_ int, lo, hi uint64) { m.matVecRows(dst, src, lo, hi) })
}

// Apply is MatVec inline and untimed: linalg.MatVecer, for Lanczos.
func (m *SubMatrix) Apply(dst, src []complex128) { m.matVecRows(dst, src, 0, uint64(m.Dim())) }

// matVecRows sums each row in stored order. A real value v is multiplied
// into the real and imaginary parts separately: v·re and v·im are the
// parts of (v+0i)·src to the bit, since the 0·im and 0·re they drop are
// zeros and a sum that starts at +0 absorbs a zero of either sign. Rows
// go two at a time, their sums interleaved: each is still one chain of
// adds in stored order, and the two chains overlap in the pipeline.
//
//vqesim:hotpath
func (m *SubMatrix) matVecRows(dst, src []complex128, lo, hi uint64) {
	rs := m.rowStart
	r := lo
	for ; r+1 < hi; r += 2 {
		if m.val == nil {
			dst[r], dst[r+1] = realRows(m.re, m.col, src, rs[r], rs[r+1], rs[r+2])
		} else {
			dst[r], dst[r+1] = complexRows(m.val, m.col, src, rs[r], rs[r+1], rs[r+2])
		}
	}
	if r < hi && m.val == nil {
		dst[r] = realRow(m.re, m.col, src, rs[r], rs[r+1], 0)
	} else if r < hi {
		dst[r] = complexRow(m.val, m.col, src, rs[r], rs[r+1], 0)
	}
}

// realRows sums entries [a, b) and [b, c), stored real, against src: the
// two rows' chains in lockstep, then the longer one's tail.
//
//vqesim:hotpath
func realRows(re []float64, col []int32, src []complex128, a, b, c int32) (complex128, complex128) {
	var re0, im0, re1, im1 float64
	e0, e1 := a, b
	for ; e0 < b && e1 < c; e0, e1 = e0+1, e1+1 {
		v0, x0 := re[e0], src[col[e0]]
		v1, x1 := re[e1], src[col[e1]]
		re0 += v0 * real(x0)
		im0 += v0 * imag(x0)
		re1 += v1 * real(x1)
		im1 += v1 * imag(x1)
	}
	return realRow(re, col, src, e0, b, complex(re0, im0)), realRow(re, col, src, e1, c, complex(re1, im1))
}

// realRow adds entries [e, end), stored real, to the partial sum acc.
//
//vqesim:hotpath
func realRow(re []float64, col []int32, src []complex128, e, end int32, acc complex128) complex128 {
	accRe, accIm := real(acc), imag(acc)
	for ; e < end; e++ {
		v, x := re[e], src[col[e]]
		accRe += v * real(x)
		accIm += v * imag(x)
	}
	return complex(accRe, accIm)
}

// complexRows is realRows for complex values.
//
//vqesim:hotpath
func complexRows(val []complex128, col []int32, src []complex128, a, b, c int32) (complex128, complex128) {
	var acc0, acc1 complex128
	e0, e1 := a, b
	for ; e0 < b && e1 < c; e0, e1 = e0+1, e1+1 {
		acc0 += val[e0] * src[col[e0]]
		acc1 += val[e1] * src[col[e1]]
	}
	return complexRow(val, col, src, e0, b, acc0), complexRow(val, col, src, e1, c, acc1)
}

// complexRow is realRow for complex values.
//
//vqesim:hotpath
func complexRow(val []complex128, col []int32, src []complex128, e, end int32, acc complex128) complex128 {
	for ; e < end; e++ {
		acc += val[e] * src[col[e]]
	}
	return acc
}

// Pairs is a generator plan restricted to a subspace: each X-mask group as
// the explicit 2×2 blocks it acts through.
type Pairs struct {
	groups [][]state.Pair
}

// RestrictPairs compiles a NewGenerator plan on sp. Within a group the
// pairs keep the order PairBracket visits them in. A generator that maps a
// state of sp outside sp is rejected with core.ErrInvalidArgument. On a
// sector it walks the states as Restrict does.
func (pl *Plan) RestrictPairs(sp *Subspace) (*Pairs, error) {
	if !pl.generator {
		return nil, fmt.Errorf("%w: pauli: plan was not built by NewGenerator", core.ErrInvalidArgument)
	}
	out := &Pairs{groups: make([][]state.Pair, len(pl.groups))}
	if sp.pos == nil && sp.within == nil {
		couplings := 0
		defer func() { mRestrictCouplings.Add(int64(couplings)) }()
		var s sectorGroup
		for gi := range pl.groups {
			sp.compile(&s, &pl.groups[gi], &couplings)
			for p, i := range sp.basis {
				switch {
				case !s.keeps(i) && !s.sealed:
					couplings++
					if _, moves := s.g.coupling(i); moves {
						return nil, leak(i, i^s.x)
					}
				case s.keeps(i) && i>>uint(s.g.q)&1 == 0: // one entry per pair, from its lower member
					if a, moves := s.source(i, &couplings); moves {
						out.groups[gi] = append(out.groups[gi], state.Pair{P: int32(p), Q: int32(sp.stepRank(i, p, s.x, s.lo, s.hi)), A: a})
					}
				}
			}
		}
		return out, nil
	}
	for gi := range pl.groups {
		g := &pl.groups[gi]
		for p, i := range sp.basis {
			q, inside := sp.Position(i ^ g.x)
			switch {
			case !inside:
				if _, moves := g.coupling(i); moves {
					return nil, leak(i, i^g.x)
				}
			case i>>uint(g.q)&1 == 0: // one entry per pair, from its lower member
				if a, moves := g.coupling(i); moves {
					out.groups[gi] = append(out.groups[gi], state.Pair{P: int32(p), Q: int32(q), A: a})
				}
			}
		}
	}
	return out, nil
}

// NumGroups is the number of pair sweeps one Exp costs.
func (ps *Pairs) NumGroups() int { return len(ps.groups) }

// Exp multiplies phi, and a non-nil lam, by exp(θ·A) in place, one pair
// sweep per X-mask group, and returns 2·Re⟨lam|A|phi⟩, the derivative of
// Re⟨lam|exp(θ·A)|phi⟩ in θ, which the rotation leaves unchanged: one step
// of the adjoint gradient's backward pass. At θ = 0 it is Plan.Bracket over
// the subspace: both vectors are read and neither written.
func (ps *Pairs) Exp(phi, lam []complex128, theta float64) float64 {
	total := 0.0
	for _, g := range ps.groups {
		total += state.RotatePairList(phi, lam, g, theta)
	}
	return total
}

// sectorRestriction is one memoized Plan.RestrictSector.
type sectorRestriction struct {
	n, ne int
	once  sync.Once
	space *Subspace
	h     *SubMatrix
	err   error
}

// RestrictSector is Restrict on Sector(n, ne), computed once per plan and
// sector: the FCI reference and the ansatz block of one job ask the same
// plan and share the result. Safe for concurrent use; the subspace and
// matrix must not be modified.
func (pl *Plan) RestrictSector(n, ne int) (*Subspace, *SubMatrix, error) {
	pl.sectorMu.Lock()
	var sr *sectorRestriction
	for _, c := range pl.sectors {
		if c.n == n && c.ne == ne {
			sr = c
		}
	}
	if sr == nil {
		sr = &sectorRestriction{n: n, ne: ne}
		pl.sectors = append(pl.sectors, sr)
	}
	pl.sectorMu.Unlock()
	sr.once.Do(func() {
		if sr.space, sr.err = Sector(n, ne); sr.err == nil {
			sr.h, sr.err = pl.Restrict(sr.space)
		}
	})
	return sr.space, sr.h, sr.err
}

// Block cuts the closure of ref out of sector sp: the states ref reaches
// through h's nonzeros — h.Restrict on sp, an edge from column i to row
// j — and through gens's pairs, the generators' RestrictPairs on sp. For
// an anti-Hermitian generator both directions of a pair couple alike, so
// this is the set NewSubspace(ref, gens' plans…, h's plan) finds, in the
// same order. The block's H is h's sub-block and each generator's pairs
// the ones inside, each in stored order, so they sum as Restrict and
// RestrictPairs on the block would. ref must lie in sp.
func (sp *Subspace) Block(ref uint64, h *SubMatrix, gens []*Pairs) (*Subspace, *SubMatrix, []*Pairs) {
	r0, ok := sp.rank(ref)
	if !ok || sp.pos != nil || sp.within != nil {
		panic(fmt.Errorf("%w: pauli: Block needs a sector and a reference inside it", core.ErrInvalidArgument))
	}
	// within marks the closure with 0 until positions are known.
	within := make([]int32, len(sp.basis))
	for r := range within {
		within[r] = -1
	}
	within[r0] = 0
	for grew := true; grew; {
		grew = false
		for j := range h.Dim() {
			if within[j] >= 0 {
				continue
			}
			for e := h.rowStart[j]; e < h.rowStart[j+1]; e++ {
				if within[h.col[e]] >= 0 {
					within[j], grew = 0, true
					break
				}
			}
		}
		for _, ps := range gens {
			for _, g := range ps.groups {
				for _, pr := range g {
					if (within[pr.P] >= 0) != (within[pr.Q] >= 0) {
						within[pr.P], within[pr.Q], grew = 0, 0, true
					}
				}
			}
		}
	}
	dim, bound := 0, 0
	for r, w := range within {
		if w >= 0 {
			dim++
			bound += int(h.rowStart[r+1] - h.rowStart[r])
		}
	}
	block := &Subspace{basis: make([]uint64, 0, dim), n: sp.n, ne: sp.ne, within: within, rankTab: sp.rankTab, rankOff: sp.rankOff}
	for r, w := range within {
		if w >= 0 {
			within[r] = int32(len(block.basis))
			block.basis = append(block.basis, sp.basis[r])
		}
	}

	bh := &SubMatrix{rowStart: make([]int32, 1, dim+1), col: make([]int32, 0, bound)}
	if h.val == nil {
		bh.re = make([]float64, 0, bound)
	} else {
		bh.val = make([]complex128, 0, bound)
	}
	for r, w := range within {
		if w < 0 {
			continue
		}
		for e := h.rowStart[r]; e < h.rowStart[r+1]; e++ {
			if c := within[h.col[e]]; c >= 0 {
				bh.col = append(bh.col, c)
				if h.val == nil {
					bh.re = append(bh.re, h.re[e])
				} else {
					bh.val = append(bh.val, h.val[e])
				}
			}
		}
		bh.rowStart = append(bh.rowStart, int32(len(bh.col)))
	}

	bgens := make([]*Pairs, len(gens))
	for k, ps := range gens {
		bgens[k] = &Pairs{groups: make([][]state.Pair, len(ps.groups))}
		for gi, g := range ps.groups {
			bgens[k].groups[gi] = make([]state.Pair, 0, len(g))
			for _, pr := range g {
				if p := within[pr.P]; p >= 0 {
					bgens[k].groups[gi] = append(bgens[k].groups[gi], state.Pair{P: p, Q: within[pr.Q], A: pr.A})
				}
			}
		}
	}
	return block, bh, bgens
}

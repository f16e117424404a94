package state

// This file wires the transpiler's gate fusion (paper §4.3) into the
// runtime execution path. circuit.Transpile already merges adjacent
// gates into Fused1Q/Fused2Q unitaries, but Run still walks the gate
// list one full amplitude pass per gate — so the >50% gate-count
// reduction of the paper's Figure 4 never reached wall clock. A
// FusedProgram lowers the transpiled circuit once into flat kernel
// descriptors (dense/diagonal/sparse, classified at compile time
// instead of per apply) and packs consecutive ops into segments: maximal
// runs whose qubits together number at most TileBits. Each segment runs
// as one pass over the state, tile by tile: a tile is the 2^TileBits
// amplitudes spanned by the segment's qubits topped up with the lowest
// other qubits, and every op of the segment is applied to it, in program
// order, while it is L1-resident. When the tile's qubits are the low
// bits the tile is a contiguous block updated in place; otherwise it is
// gathered into per-worker scratch, transformed and scattered back.
//
// The tile trick is sound because no op of a segment couples amplitudes
// of two tiles: an op only mixes indices that differ in its own qubits,
// and those are all tile qubits. It is bit-equal to one full pass per op
// because each group of coupled amplitudes sees the same ops, in the
// same order, on the same kernels.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/kernel/tuning"
	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// fusedOpKind selects the kernel a lowered op runs on.
type fusedOpKind uint8

const (
	fusedDense1 fusedOpKind = iota
	fusedDiag1
	fusedDense2
	fusedSparse2
	fusedDiag2
	fusedMarker
)

// sparseRows is the sparse 4×4 form: at most two nonzeros per row, held
// as two (column, value) slots per row with the columns ascending. A row
// with one nonzero pads its second slot with a zero entry.
type sparseRows struct {
	col [4][2]uint8
	val [4][2]complex128
}

// fusedOp is one lowered operation. Matrix entries live in fixed
// arrays, not pointers, so a segment's ops are contiguous in memory and
// the sweep never chases a *linalg.Matrix indirection.
type fusedOp struct {
	kind fusedOpKind
	a, b int // target qubits; a is the high-order bit of the 2q local index
	// m holds the dense matrix row-major: 2×2 ops use m[0..3], 4×4 ops
	// m[0..15]. Diagonal ops store their diagonal in m[0..1] / m[0..3].
	m [16]complex128
	// sp is the sparse 4×4 form (the fused staircase shape CX·RZ·CX
	// produces).
	sp sparseRows
	// marker carries a non-unitary pass-through (measure/reset/barrier).
	marker gate.Gate
	mask   uint64 // qubit occupancy, for segment packing
}

// segment is one pass over the state: a maximal run of consecutive ops
// whose qubits together number at most the compile tile width, or one
// marker alone.
type segment struct {
	ops  []fusedOp // a window of the program's ops
	mask uint64    // union of the ops' qubit masks
}

// FusedProgram is a circuit compiled for fused execution. Programs are
// immutable after CompileFused and safe for concurrent RunFused on
// different states.
type FusedProgram struct {
	n           int
	gatesBefore int
	gatesAfter  int
	// segs holds the segments in program order: one state pass each.
	segs []segment
}

// NumQubits returns the register width the program was compiled for.
func (p *FusedProgram) NumQubits() int { return p.n }

// GatesBefore reports the source circuit's gate count.
func (p *FusedProgram) GatesBefore() int { return p.gatesBefore }

// GatesAfter reports the gate count after transpilation — the ops the
// engine actually executes (the paper's Figure 4 quantity).
func (p *FusedProgram) GatesAfter() int { return p.gatesAfter }

// NumSweeps reports how many passes over the state one run costs: one
// per segment and one per marker.
func (p *FusedProgram) NumSweeps() int { return len(p.segs) }

// CompileFused transpiles c with the default options (identity
// dropping, inverse cancellation, width-2 fusion) and lowers the result
// into a fused program whose segments span at most TileBits qubits.
func CompileFused(c *circuit.Circuit) *FusedProgram { return compileFused(c, tuning.TileBits) }

// compileFused takes the segment width as a parameter so tests can make
// narrow segments, and with them gathered tiles, on small registers.
func compileFused(c *circuit.Circuit, tileBits int) *FusedProgram {
	start := telemetry.Now()
	t := circuit.Transpile(c)
	p := &FusedProgram{n: c.NumQubits, gatesBefore: c.GateCount(), gatesAfter: t.GateCount()}
	ops := make([]fusedOp, 0, len(t.Gates))
	for _, g := range t.Gates {
		if op, ok := lower(g); ok {
			ops = append(ops, op)
		}
	}
	p.segs = segments(ops, tileBits)
	mFusionGatesBefore.Add(int64(p.gatesBefore))
	mFusionGatesAfter.Add(int64(p.gatesAfter))
	mFusionCompile.Since(start)
	return p
}

// lower classifies one transpiled gate into a fusedOp; barriers and
// identities have no runtime effect and lower to nothing.
func lower(g gate.Gate) (fusedOp, bool) {
	switch {
	case g.Kind == gate.Barrier || g.Kind == gate.I:
		return fusedOp{}, false
	case !g.IsUnitary():
		// Markers execute through ApplyGate in program order.
		return fusedOp{kind: fusedMarker, marker: g.Clone()}, true
	case kernelArity(g) == 1:
		return lower1Q(g), true
	}
	return lower2Q(g), true
}

// segments packs ops, in program order, into maximal windows whose
// qubits together number at most tileBits; a marker ends the window
// before it and runs alone. The windows share ops' backing array.
func segments(ops []fusedOp, tileBits int) []segment {
	var out []segment
	lo := 0
	var mask uint64
	for i := range ops {
		op := &ops[i]
		if i > lo && (op.kind == fusedMarker || ops[lo].kind == fusedMarker ||
			bits.OnesCount64(mask|op.mask) > tileBits) {
			out = append(out, segment{ops: ops[lo:i], mask: mask})
			lo, mask = i, 0
		}
		mask |= op.mask
	}
	if lo < len(ops) {
		out = append(out, segment{ops: ops[lo:], mask: mask})
	}
	return out
}

// kernelArity returns 1 or 2 for a unitary the shape kernels can run:
// the one place a gate's qubit count selects a kernel family, for the
// interpreter (ApplyGate) and the compiler (lower) alike.
func kernelArity(g gate.Gate) int {
	if n := g.Arity(); n == 1 || n == 2 {
		return n
	}
	panic(fmt.Errorf("%w: state: no kernel for %d-qubit gate %v", core.ErrInvalidArgument, g.Arity(), g.Kind))
}

// chop zeroes double-precision dust so kernels see the true sparsity
// (entries of a unitary are O(1); 1e-14 is pure rounding noise from the
// fused matrix products).
func chop(v complex128) complex128 {
	if math.Hypot(real(v), imag(v)) < 1e-14 {
		return 0
	}
	return v
}

func lower1Q(g gate.Gate) fusedOp {
	u := g.Matrix2()
	op := fusedOp{a: g.Qubits[0], mask: 1 << uint(g.Qubits[0])}
	u00, u01 := chop(u.At(0, 0)), chop(u.At(0, 1))
	u10, u11 := chop(u.At(1, 0)), chop(u.At(1, 1))
	if u01 == 0 && u10 == 0 {
		op.kind = fusedDiag1
		op.m[0], op.m[1] = u00, u11
		return op
	}
	op.kind = fusedDense1
	op.m[0], op.m[1], op.m[2], op.m[3] = u00, u01, u10, u11
	return op
}

// classify2Q is the one 4×4 matrix→shape classification, shared by
// lower2Q and Apply2Q: it writes u's chopped entries row-major into m
// and returns the cheapest class that can run them — diagonal, sparse
// (≤ 2 nonzeros per row: fused staircase blocks such as CX·RZ·CX, and
// exploiting that recovers the fusion speedup the paper sees on
// bandwidth-bound GPU kernels), else dense. For a unitary, ≤ 8 nonzeros
// in all already implies ≤ 2 per row.
func classify2Q(u *linalg.Matrix, m *[16]complex128) fusedOpKind {
	widest, diag := 0, true
	for i := 0; i < 4; i++ {
		row := 0
		for j := 0; j < 4; j++ {
			v := chop(u.At(i, j))
			m[i*4+j] = v
			if v != 0 {
				row++
				if i != j {
					diag = false
				}
			}
		}
		widest = max(widest, row)
	}
	switch {
	case diag:
		return fusedDiag2
	case widest <= 2:
		return fusedSparse2
	}
	return fusedDense2
}

// sparseRowsOf fills sp from a row-major 4×4 with at most two nonzeros
// per row, columns ascending within a row.
func sparseRowsOf(m *[16]complex128, sp *sparseRows) {
	for r := 0; r < 4; r++ {
		k := 0
		for c := 0; c < 4; c++ {
			if v := m[r*4+c]; v != 0 {
				sp.col[r][k], sp.val[r][k] = uint8(c), v
				k++
			}
		}
		if k == 1 {
			// A zero entry in any other column: adding 0·x changes no
			// nonzero sum.
			sp.col[r][1], sp.val[r][1] = (sp.col[r][0]+1)%4, 0
		}
	}
}

func lower2Q(g gate.Gate) fusedOp {
	a, b := g.Qubits[0], g.Qubits[1]
	op := fusedOp{a: a, b: b, mask: 1<<uint(a) | 1<<uint(b)}
	op.kind = classify2Q(g.Matrix4(), &op.m)
	switch op.kind {
	case fusedDiag2:
		op.m[1], op.m[2], op.m[3] = op.m[5], op.m[10], op.m[15]
	case fusedSparse2:
		sparseRowsOf(&op.m, &op.sp)
	}
	return op
}

// RunOptimized transpiles and executes c through the fused kernel path.
func (s *State) RunOptimized(c *circuit.Circuit) {
	s.RunFused(CompileFused(c))
}

// RunFused executes a compiled program: one pass over the state per
// segment, markers through ApplyGate in program order.
func (s *State) RunFused(p *FusedProgram) { s.runFused(p, tuning.TileBits) }

// runFused takes the tile width as a parameter so tests can put a tile
// boundary where a dense reference unitary still reaches both sides. A
// segment wider than tileBits runs on tiles as wide as itself.
func (s *State) runFused(p *FusedProgram, tileBits int) {
	if p.n > s.n {
		panic(core.ErrDimensionMismatch)
	}
	start := telemetry.Now()
	for i := range p.segs {
		sg := &p.segs[i]
		if sg.ops[0].kind == fusedMarker {
			s.ApplyGate(sg.ops[0].marker)
			continue
		}
		s.runSegment(sg, tileBits)
	}
	mFusionSweeps.Add(int64(len(p.segs)))
	mFusionRun.Since(start)
}

// tileGeometry returns the tile width w for running a segment on the
// qubits of mask over an n-qubit state with tiles of 2^tileBits
// amplitudes — at least the segment's own width, at most the state's —
// and the tile's qubit mask: the segment's qubits topped up with the
// lowest other qubits.
func tileGeometry(mask uint64, tileBits, n int) (w uint, tm uint64) {
	w = uint(min(max(tileBits, bits.OnesCount64(mask)), n))
	tm = mask
	for others := ^mask; bits.OnesCount64(tm) < int(w); others &= others - 1 {
		tm |= others & -others
	}
	return w, tm
}

// runSegment applies every op of sg tile by tile, one pass over the
// state; pool chunks take disjoint ranges of tiles. It skips what the
// state's support rules out: a tile with an outer bit outside the
// support holds zeros before and after the segment (the tile qubits hold
// all of the segment's), and each op, on the support it and the ops
// before it leave, sweeps only the rest indices restLimit keeps. The
// skipped amplitudes are zeros the kernels would only rewrite as ±0.
//
//vqesim:hotpath
func (s *State) runSegment(sg *segment, tileBits int) {
	amps := s.amps
	ops := sg.ops
	sup := s.support
	w, tm := tileGeometry(sg.mask, tileBits, s.n)
	outer := uint64(len(amps)-1) &^ tm & sup
	tiles := uint64(1) << uint(bits.OnesCount64(outer))
	var scratch []complex128
	if tm != 1<<w-1 {
		scratch = s.tileScratch(w)
	}
	if len(amps) < s.opts.ParallelThreshold || s.opts.Workers <= 1 || s.pool == nil || tiles < 2 {
		mPoolInline.Inc()
		sweepTiles(amps, scratch, 0, ops, w, tm, outer, sup, 0, tiles)
	} else {
		s.pool.Run(tiles, s.opts.Workers, func(slot int, lo, hi uint64) {
			sweepTiles(amps, scratch, slot, ops, w, tm, outer, sup, lo, hi)
		})
	}
	var swept uint64
	for i := range ops {
		sup |= ops[i].mask
		swept += ops[i].restLimit(tm, sup) << ops[i].arity()
	}
	s.support = sup
	s.nGates += uint64(len(ops))
	mFusionOps.Add(int64(len(ops)))
	mFusionAmpsSwept.Add(int64(tiles * swept))
}

// tileScratch returns the state's gather buffer, one 2^w-amplitude tile
// per pool slot, growing it on first need.
func (s *State) tileScratch(w uint) []complex128 {
	if need := s.opts.Workers << w; len(s.scratch) < need {
		s.scratch = make([]complex128, need)
	}
	return s.scratch
}

// sweepTiles runs ops over tiles [lo, hi) of geometry (w, tm), starting
// from support sup. Tile t is the t-th subset of the outer qubits outer,
// in ascending order, walked by subset enumeration: the next subset of
// mask m after s is ((s|^m)+1)&m. With no scratch the tile qubits are
// the low w bits and the tile is the block of 2^w amplitudes at its
// outer bits, updated in place. Otherwise each tile is gathered into the
// slot's 2^w amplitudes of scratch, its indices walked by the same
// enumeration over tm, transformed and scattered back.
//
//vqesim:hotpath
func sweepTiles(amps, scratch []complex128, slot int, ops []fusedOp, w uint, tm, outer, sup, lo, hi uint64) {
	o := deposit(lo, outer)
	if scratch == nil {
		for t := lo; t < hi; t++ {
			applyTile(amps[o:o+1<<w], ops, tm, sup)
			o = ((o | ^outer) + 1) & outer
		}
		return
	}
	buf := scratch[uint64(slot)<<w : uint64(slot+1)<<w]
	for t := lo; t < hi; t++ {
		h := o
		for l := range buf {
			buf[l] = amps[h]
			h = ((h|^tm)+1)&tm | o
		}
		applyTile(buf, ops, tm, sup)
		h = o
		for l := range buf {
			amps[h] = buf[l]
			h = ((h|^tm)+1)&tm | o
		}
		o = ((o | ^outer) + 1) & outer
	}
}

// applyTile runs every op on one tile, each at its qubits' positions
// among the tile qubits tm and over the rest indices the support it
// leaves needs (sup grows by each op's qubits in turn).
//
//vqesim:hotpath
func applyTile(tile []complex128, ops []fusedOp, tm, sup uint64) {
	for i := range ops {
		op := &ops[i]
		sup |= op.mask
		a := bits.OnesCount64(tm & (1<<uint(op.a) - 1))
		b := bits.OnesCount64(tm & (1<<uint(op.b) - 1))
		op.sweep(tile, a, b, 0, op.restLimit(tm, sup))
	}
}

// restLimit returns the end of the range of rest indices op sweeps on a
// tile of qubits tm when only the qubits of sup, op's own among them,
// may be set in a nonzero amplitude. When the tile qubits of op's rest
// index outside sup are its top bits, the k inside sup are its low bits
// and [0, 2^k) holds every rest index that can address a nonzero;
// otherwise the range is every rest index of the tile.
func (op *fusedOp) restLimit(tm, sup uint64) uint64 {
	rest := tm &^ op.mask
	live := rest & sup
	if live>>uint(bits.TrailingZeros64(rest&^sup)) != 0 {
		return 1 << uint(bits.OnesCount64(rest))
	}
	return 1 << uint(bits.OnesCount64(live))
}

// deposit scatters the low bits of x into the set bits of mask, lowest
// first: the x-th subset of mask in ascending order.
func deposit(x, mask uint64) uint64 {
	var r uint64
	for bit := uint64(1); mask != 0; mask &= mask - 1 {
		if x&bit != 0 {
			r |= mask & -mask
		}
		bit <<= 1
	}
	return r
}

// arity is the op's qubit count, which is also log2 of how many
// amplitudes each "rest" index of its kernel touches.
func (op *fusedOp) arity() uint { return uint(bits.OnesCount64(op.mask)) }

// sweep runs op's kernel, on qubits a (and b), over rest indices
// [lo, hi) of amps.
//
//vqesim:hotpath
func (op *fusedOp) sweep(amps []complex128, a, b int, lo, hi uint64) {
	switch op.kind {
	case fusedDiag1:
		diag1(amps, a, op.m[0], op.m[1], lo, hi)
	case fusedDense1:
		dense1(amps, a, op.m[0], op.m[1], op.m[2], op.m[3], lo, hi)
	case fusedDiag2:
		diag2(amps, a, b, op.m[0], op.m[1], op.m[2], op.m[3], lo, hi)
	case fusedSparse2:
		sparse2(amps, a, b, &op.sp, lo, hi)
	case fusedDense2:
		dense2(amps, a, b, &op.m, lo, hi)
	}
}

// The five shape kernels are the only code in the package that sweeps
// amplitudes for a unitary matrix; the segment sweep and the reference
// interpreter (Apply1Q/Apply2Q) both call them. Each transforms in place
// the amplitudes of amps that rest indices [lo, hi) address, rest being
// the amplitude index with the op's qubit bits removed: a whole state or
// tile is (0, len>>arity), a pool chunk any sub-range of it. In the 2q
// kernels a is the high-order local bit.
//
// Rest indices that agree above the op's lowest qubit address
// consecutive amplitudes, so each kernel walks [lo, hi) in such runs —
// one index computation per run, then plain slices — and does per
// amplitude exactly the arithmetic of one element at a time.

// runEnd returns the end of the run of rest indices starting at rest
// whose amplitude indices are consecutive (their bits below the op's
// lowest qubit q are free), capped at hi.
func runEnd(rest, hi uint64, q int) uint64 {
	return min(hi, (rest|(1<<uint(q)-1))+1)
}

//vqesim:hotpath
func diag1(amps []complex128, q int, d0, d1 complex128, lo, hi uint64) {
	if q == 0 {
		// Runs of one pair: walk the adjacent pairs directly.
		x := amps[2*lo : 2*hi]
		for k := 1; k < len(x); k += 2 {
			x[k-1] *= d0
			x[k] *= d1
		}
		return
	}
	for rest := lo; rest < hi; {
		end := runEnd(rest, hi, q)
		i0 := core.InsertZeroBit(rest, q)
		x0 := amps[i0 : i0+end-rest]
		x1 := amps[i0|1<<uint(q):][:len(x0)]
		for k := range x0 {
			x0[k] *= d0
			x1[k] *= d1
		}
		rest = end
	}
}

//vqesim:hotpath
func dense1(amps []complex128, q int, u00, u01, u10, u11 complex128, lo, hi uint64) {
	if q == 0 {
		x := amps[2*lo : 2*hi]
		for k := 1; k < len(x); k += 2 {
			a0, a1 := x[k-1], x[k]
			x[k-1] = u00*a0 + u01*a1
			x[k] = u10*a0 + u11*a1
		}
		return
	}
	for rest := lo; rest < hi; {
		end := runEnd(rest, hi, q)
		i0 := core.InsertZeroBit(rest, q)
		x0 := amps[i0 : i0+end-rest]
		x1 := amps[i0|1<<uint(q):][:len(x0)]
		for k, a0 := range x0 {
			a1 := x1[k]
			x0[k] = u00*a0 + u01*a1
			x1[k] = u10*a0 + u11*a1
		}
		rest = end
	}
}

// quad returns the four equal-length runs of amplitudes a 2q kernel
// transforms for rest indices [rest, end): local index 0 (both bits
// clear), 1 (b set), 2 (a set) and 3 (both). Callers reslice the last
// three to len(x0) next to their loop, which is what lets the compiler
// drop the per-element bounds checks.
func quad(amps []complex128, a, b int, rest, end uint64) (x0, x1, x2, x3 []complex128) {
	i0 := core.InsertTwoZeroBits(rest, a, b)
	n := end - rest
	x0 = amps[i0 : i0+n]
	x1 = amps[i0|1<<uint(b):][:n]
	x2 = amps[i0|1<<uint(a):][:n]
	x3 = amps[i0|1<<uint(a)|1<<uint(b):][:n]
	return x0, x1, x2, x3
}

//vqesim:hotpath
func diag2(amps []complex128, a, b int, d0, d1, d2, d3 complex128, lo, hi uint64) {
	q := min(a, b)
	for rest := lo; rest < hi; {
		end := runEnd(rest, hi, q)
		x0, x1, x2, x3 := quad(amps, a, b, rest, end)
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		for k := range x0 {
			x0[k] *= d0
			x1[k] *= d1
			x2[k] *= d2
			x3[k] *= d3
		}
		rest = end
	}
}

// sparse2 sums each row's two slots in ascending column order. Against
// summing the nonzeros into a zeroed output it can differ only in the
// sign of an exact zero, which compares equal and changes no nonzero
// sum downstream.
//
//vqesim:hotpath
func sparse2(amps []complex128, a, b int, sp *sparseRows, lo, hi uint64) {
	q := min(a, b)
	c, v := &sp.col, &sp.val
	v00, v01, v10, v11 := v[0][0], v[0][1], v[1][0], v[1][1]
	v20, v21, v30, v31 := v[2][0], v[2][1], v[3][0], v[3][1]
	for rest := lo; rest < hi; {
		end := runEnd(rest, hi, q)
		var x [4][]complex128
		x[0], x[1], x[2], x[3] = quad(amps, a, b, rest, end)
		y0 := x[0]
		y1, y2, y3 := x[1][:len(y0)], x[2][:len(y0)], x[3][:len(y0)]
		r00, r01 := x[c[0][0]&3][:len(y0)], x[c[0][1]&3][:len(y0)]
		r10, r11 := x[c[1][0]&3][:len(y0)], x[c[1][1]&3][:len(y0)]
		r20, r21 := x[c[2][0]&3][:len(y0)], x[c[2][1]&3][:len(y0)]
		r30, r31 := x[c[3][0]&3][:len(y0)], x[c[3][1]&3][:len(y0)]
		for k := range y0 {
			o0 := v00*r00[k] + v01*r01[k]
			o1 := v10*r10[k] + v11*r11[k]
			o2 := v20*r20[k] + v21*r21[k]
			o3 := v30*r30[k] + v31*r31[k]
			y0[k], y1[k], y2[k], y3[k] = o0, o1, o2, o3
		}
		rest = end
	}
}

//vqesim:hotpath
func dense2(amps []complex128, a, b int, m *[16]complex128, lo, hi uint64) {
	q := min(a, b)
	for rest := lo; rest < hi; {
		end := runEnd(rest, hi, q)
		x0, x1, x2, x3 := quad(amps, a, b, rest, end)
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		for k, v0 := range x0 {
			v1, v2, v3 := x1[k], x2[k], x3[k]
			x0[k] = m[0]*v0 + m[1]*v1 + m[2]*v2 + m[3]*v3
			x1[k] = m[4]*v0 + m[5]*v1 + m[6]*v2 + m[7]*v3
			x2[k] = m[8]*v0 + m[9]*v1 + m[10]*v2 + m[11]*v3
			x3[k] = m[12]*v0 + m[13]*v1 + m[14]*v2 + m[15]*v3
		}
		rest = end
	}
}

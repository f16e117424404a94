package state

// This file wires the transpiler's gate fusion (paper §4.3) into the
// runtime execution path. circuit.Transpile already merges adjacent
// gates into Fused1Q/Fused2Q unitaries, but Run still walks the gate
// list one full amplitude pass per gate — so the >50% gate-count
// reduction of the paper's Figure 4 never reached wall clock. A
// FusedProgram lowers the transpiled circuit once into flat kernel
// descriptors (dense/diagonal/sparse, classified at compile time
// instead of per apply), packs consecutive ops on disjoint qubits into
// layers, and executes each layer with a cache-blocked tile sweep:
// every op of the layer is applied to one L1-resident tile of
// amplitudes before moving to the next tile, so a layer of k ops costs
// one memory pass instead of k.
//
// The tile trick is sound because an op whose qubits all lie below
// TileBits only couples amplitudes whose indices differ in those low
// bits — i.e. pairs inside the same aligned 2^TileBits block. Layers
// containing higher-qubit ops fall back to per-op full sweeps (which
// still benefit from the compile-time kernel classification).

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

// fusedNZ is one nonzero of a sparse 4×4 matrix.
type fusedNZ struct {
	r, c int
	v    complex128
}

// fusedOp is one lowered operation. Matrix entries live in fixed
// arrays, not pointers, so a layer's ops are contiguous in memory and
// the sweep never chases a *linalg.Matrix indirection.
type fusedOp struct {
	kind fusedOpKind
	a, b int // target qubits; a is the high-order bit of the 2q local index
	// m holds the dense matrix row-major: 2×2 ops use m[0..3], 4×4 ops
	// m[0..15]. Diagonal ops store their diagonal in m[0..1] / m[0..3].
	m [16]complex128
	// nz/nnz hold the sparse 4×4 form (≤ 8 nonzeros, the fused
	// staircase shape CX·RZ·CX produces).
	nz  [8]fusedNZ
	nnz int
	// marker carries a non-unitary pass-through (measure/reset/barrier).
	marker gate.Gate
	mask   uint64 // qubit occupancy, for layer packing
}

// fusedLayer is a run of ops on pairwise-disjoint qubits; they commute,
// so the tile sweep may apply them in any order within a tile.
type fusedLayer struct {
	ops  []fusedOp
	mask uint64 // union of the ops' qubit masks
}

// FusedProgram is a circuit compiled for fused execution. Programs are
// immutable after CompileFused and safe for concurrent RunFused on
// different states.
type FusedProgram struct {
	n           int
	gatesBefore int
	gatesAfter  int
	layers      []fusedLayer
}

// NumQubits returns the register width the program was compiled for.
func (p *FusedProgram) NumQubits() int { return p.n }

// GatesBefore reports the source circuit's gate count.
func (p *FusedProgram) GatesBefore() int { return p.gatesBefore }

// GatesAfter reports the gate count after transpilation — the ops the
// engine actually executes (the paper's Figure 4 quantity).
func (p *FusedProgram) GatesAfter() int { return p.gatesAfter }

// NumLayers reports how many disjoint-qubit layers the program packs.
func (p *FusedProgram) NumLayers() int { return len(p.layers) }

// CompileFused transpiles c with the default options (identity
// dropping, inverse cancellation, width-2 fusion) and lowers the result
// into a fused program.
func CompileFused(c *circuit.Circuit) *FusedProgram {
	start := telemetry.Now()
	t := circuit.Transpile(c, circuit.DefaultTranspileOptions())
	p := &FusedProgram{n: c.NumQubits, gatesBefore: c.GateCount(), gatesAfter: t.GateCount()}
	for _, g := range t.Gates {
		p.lower(g)
	}
	mFusionGatesBefore.Add(int64(p.gatesBefore))
	mFusionGatesAfter.Add(int64(p.gatesAfter))
	mFusionLayers.Add(int64(len(p.layers)))
	mFusionCompile.Since(start)
	return p
}

// lower classifies one transpiled gate into a fusedOp and packs it into
// the current layer (or a new one when qubits collide).
func (p *FusedProgram) lower(g gate.Gate) {
	switch {
	case g.Kind == gate.Barrier || g.Kind == gate.I:
		return // no runtime effect
	case !g.IsUnitary():
		// Markers execute through ApplyGate in program order; they get a
		// private layer so the surrounding unitary layers stay pure.
		op := fusedOp{kind: fusedMarker, marker: g.Clone()}
		p.layers = append(p.layers, fusedLayer{ops: []fusedOp{op}})
	case kernelArity(g) == 1:
		p.push(lower1Q(g))
	default:
		p.push(lower2Q(g))
	}
}

// push appends op to the last layer if its qubits are free there, else
// opens a new layer. Greedy packing preserves program order: an op only
// joins a layer whose every member acts on disjoint qubits, and
// disjoint single/two-qubit unitaries commute.
func (p *FusedProgram) push(op fusedOp) {
	if n := len(p.layers); n > 0 {
		l := &p.layers[n-1]
		if l.ops[0].kind != fusedMarker && l.mask&op.mask == 0 {
			l.ops = append(l.ops, op)
			l.mask |= op.mask
			return
		}
	}
	p.layers = append(p.layers, fusedLayer{ops: []fusedOp{op}, mask: op.mask})
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
// (≤ 8 nonzeros: fused staircase blocks such as CX·RZ·CX have ≤ 2 per
// row, and exploiting that recovers the fusion speedup the paper sees
// on bandwidth-bound GPU kernels), else dense.
func classify2Q(u *linalg.Matrix, m *[16]complex128) fusedOpKind {
	nnz, diag := 0, true
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := chop(u.At(i, j))
			m[i*4+j] = v
			if v != 0 {
				nnz++
				if i != j {
					diag = false
				}
			}
		}
	}
	switch {
	case diag:
		return fusedDiag2
	case nnz <= 8:
		return fusedSparse2
	}
	return fusedDense2
}

// sparseEntries lists m's nonzeros (≤ 8 for every class but dense) in
// row-major order and returns their count.
func sparseEntries(m *[16]complex128, nz *[8]fusedNZ) int {
	n := 0
	for i, v := range m {
		if v != 0 {
			nz[n] = fusedNZ{r: i / 4, c: i % 4, v: v}
			n++
		}
	}
	return n
}

func lower2Q(g gate.Gate) fusedOp {
	a, b := g.Qubits[0], g.Qubits[1]
	op := fusedOp{a: a, b: b, mask: 1<<uint(a) | 1<<uint(b)}
	op.kind = classify2Q(g.Matrix4(), &op.m)
	switch op.kind {
	case fusedDiag2:
		op.m[1], op.m[2], op.m[3] = op.m[5], op.m[10], op.m[15]
	case fusedSparse2:
		op.nnz = sparseEntries(&op.m, &op.nz)
	}
	return op
}

// RunOptimized transpiles and executes c through the fused kernel path.
func (s *State) RunOptimized(c *circuit.Circuit) {
	s.RunFused(CompileFused(c))
}

// RunFused executes a compiled program. Layers whose qubits all fit
// inside one cache tile run as a single tiled memory pass; everything
// else runs per-op with the precompiled kernels.
func (s *State) RunFused(p *FusedProgram) { s.runFused(p, tuning.TileBits) }

// runFused takes the tile size as a parameter so tests can put a tile
// boundary where a dense reference unitary still reaches both sides.
func (s *State) runFused(p *FusedProgram, tileBits int) {
	if p.n > s.n {
		panic(core.ErrDimensionMismatch)
	}
	start := telemetry.Now()
	for li := range p.layers {
		l := &p.layers[li]
		if l.ops[0].kind == fusedMarker {
			s.ApplyGate(l.ops[0].marker)
			continue
		}
		if l.tiled(tileBits, len(s.amps)) {
			s.runTiledLayer(l, tileBits)
			continue
		}
		for oi := range l.ops {
			s.applyFusedOp(&l.ops[oi])
		}
	}
	mFusionRun.Since(start)
}

// tiled reports whether the layer runs as one tile sweep on a state of
// amps amplitudes: it has ops to share the pass between, every qubit it
// touches lies below tileBits (so each op only couples amplitudes inside
// one aligned tile), and the state holds at least one tile.
func (l *fusedLayer) tiled(tileBits, amps int) bool {
	return len(l.ops) >= 2 && l.mask>>uint(tileBits) == 0 && amps >= 1<<uint(tileBits)
}

// runTiledLayer applies every op of a layer tile by tile: each aligned
// 2^tileBits block of amplitudes is loaded once, transformed by all
// ops while L1-resident, and written back — one memory pass for the
// whole layer.
//
//vqesim:hotpath
func (s *State) runTiledLayer(l *fusedLayer, tileBits int) {
	amps := s.amps
	ops := l.ops
	tile := uint64(1) << uint(tileBits)
	tiles := uint64(len(amps)) >> uint(tileBits)
	if len(amps) < s.opts.ParallelThreshold || s.opts.Workers <= 1 || s.pool == nil {
		mPoolInline.Inc()
		fusedTileSweep(amps, ops, 0, tiles, tile)
	} else {
		s.pool.Run(tiles, s.opts.Workers, func(_ int, lo, hi uint64) {
			fusedTileSweep(amps, ops, lo, hi, tile)
		})
	}
	s.nGates += uint64(len(ops))
	mFusionTiledSweeps.Inc()
	mFusionOps.Add(int64(len(ops)))
}

// fusedTileSweep runs ops over the aligned tiles [loTile, hiTile).
// Tiles are disjoint, so pool chunks never share an amplitude.
//
//vqesim:hotpath
func fusedTileSweep(amps []complex128, ops []fusedOp, loTile, hiTile, tile uint64) {
	for t := loTile; t < hiTile; t++ {
		for oi := range ops {
			op := &ops[oi]
			op.sweep(amps, t*tile, 0, tile>>op.arity())
		}
	}
}

// applyFusedOp runs one op as a full-state sweep (the non-tiled path:
// high qubits or single-op layers): the same kernels as the tile sweep,
// over pool chunks of the whole "rest" index space at base 0.
//
//vqesim:hotpath
func (s *State) applyFusedOp(op *fusedOp) {
	amps := s.amps
	s.parallelFor(uint64(len(amps))>>op.arity(), func(lo, hi uint64) {
		op.sweep(amps, 0, lo, hi)
	})
	s.nGates++
	mFusionOps.Inc()
}

// arity is the op's qubit count, which is also log2 of how many
// amplitudes each "rest" index of its kernel touches.
func (op *fusedOp) arity() uint { return uint(bits.OnesCount64(op.mask)) }

// sweep runs op's kernel over rest indices [lo, hi) of the aligned
// region starting at base.
//
//vqesim:hotpath
func (op *fusedOp) sweep(amps []complex128, base, lo, hi uint64) {
	switch op.kind {
	case fusedDiag1:
		diag1(amps, op.a, op.m[0], op.m[1], base, lo, hi)
	case fusedDense1:
		dense1(amps, op.a, op.m[0], op.m[1], op.m[2], op.m[3], base, lo, hi)
	case fusedDiag2:
		diag2(amps, op.a, op.b, op.m[0], op.m[1], op.m[2], op.m[3], base, lo, hi)
	case fusedSparse2:
		sparse2(amps, op.a, op.b, op.nz[:op.nnz], base, lo, hi)
	case fusedDense2:
		dense2(amps, op.a, op.b, &op.m, base, lo, hi)
	}
}

// The five shape kernels are the only code in the package that sweeps
// amplitudes for a unitary matrix; the tile sweep, the full-state sweep
// and the reference interpreter (Apply1Q/Apply2Q) all call them. Each
// transforms in place the amplitudes that rest indices [lo, hi) address
// inside the aligned region starting at base, rest being the amplitude
// index with the op's qubit bits removed: a region of span amplitudes is
// (0, span>>arity), a pool chunk any sub-range of it. For base ≠ 0 the
// op's qubits must lie below log2(span) so every coupled index stays
// inside the region. In the 2q kernels a is the high-order local bit.

//vqesim:hotpath
func diag1(amps []complex128, q int, d0, d1 complex128, base, lo, hi uint64) {
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertZeroBit(rest, q)
		amps[i0] *= d0
		amps[i0|1<<uint(q)] *= d1
	}
}

//vqesim:hotpath
func dense1(amps []complex128, q int, u00, u01, u10, u11 complex128, base, lo, hi uint64) {
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertZeroBit(rest, q)
		i1 := i0 | 1<<uint(q)
		a0, a1 := amps[i0], amps[i1]
		amps[i0] = u00*a0 + u01*a1
		amps[i1] = u10*a0 + u11*a1
	}
}

//vqesim:hotpath
func diag2(amps []complex128, a, b int, d0, d1, d2, d3 complex128, base, lo, hi uint64) {
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertTwoZeroBits(rest, a, b)
		i1 := i0 | 1<<uint(b)
		i2 := i0 | 1<<uint(a)
		i3 := i1 | 1<<uint(a)
		amps[i0] *= d0
		amps[i1] *= d1
		amps[i2] *= d2
		amps[i3] *= d3
	}
}

//vqesim:hotpath
func sparse2(amps []complex128, a, b int, entries []fusedNZ, base, lo, hi uint64) {
	var idx [4]uint64
	var in, out [4]complex128
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertTwoZeroBits(rest, a, b)
		idx[0] = i0
		idx[1] = i0 | 1<<uint(b)
		idx[2] = i0 | 1<<uint(a)
		idx[3] = idx[1] | 1<<uint(a)
		in[0], in[1], in[2], in[3] = amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]
		out[0], out[1], out[2], out[3] = 0, 0, 0, 0
		for t := range entries {
			e := &entries[t]
			out[e.r] += e.v * in[e.c]
		}
		amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]] = out[0], out[1], out[2], out[3]
	}
}

//vqesim:hotpath
func dense2(amps []complex128, a, b int, m *[16]complex128, base, lo, hi uint64) {
	var idx [4]uint64
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertTwoZeroBits(rest, a, b)
		idx[0] = i0
		idx[1] = i0 | 1<<uint(b)
		idx[2] = i0 | 1<<uint(a)
		idx[3] = idx[1] | 1<<uint(a)
		v0, v1, v2, v3 := amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]
		amps[idx[0]] = m[0]*v0 + m[1]*v1 + m[2]*v2 + m[3]*v3
		amps[idx[1]] = m[4]*v0 + m[5]*v1 + m[6]*v2 + m[7]*v3
		amps[idx[2]] = m[8]*v0 + m[9]*v1 + m[10]*v2 + m[11]*v3
		amps[idx[3]] = m[12]*v0 + m[13]*v1 + m[14]*v2 + m[15]*v3
	}
}

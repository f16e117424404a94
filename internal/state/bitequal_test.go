package state

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/kernel/tuning"
	"repro/internal/linalg"
)

// The reference kernels below are the element-wise loops the shape
// kernels, the interpreter and the CX/CZ/RZ fast paths were written as:
// one InsertZeroBit/InsertTwoZeroBits per rest index, and a sparse 4×4
// that sums its nonzeros, row-major, into a zeroed output. The tests in
// this file hold the production code to their bits.

func refChop(v complex128) complex128 {
	if math.Hypot(real(v), imag(v)) < 1e-14 {
		return 0
	}
	return v
}

func refDiag1(amps []complex128, q int, d0, d1 complex128, base, lo, hi uint64) {
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertZeroBit(rest, q)
		amps[i0] *= d0
		amps[i0|1<<uint(q)] *= d1
	}
}

func refDense1(amps []complex128, q int, u00, u01, u10, u11 complex128, base, lo, hi uint64) {
	for rest := lo; rest < hi; rest++ {
		i0 := base + core.InsertZeroBit(rest, q)
		i1 := i0 | 1<<uint(q)
		a0, a1 := amps[i0], amps[i1]
		amps[i0] = u00*a0 + u01*a1
		amps[i1] = u10*a0 + u11*a1
	}
}

func refDiag2(amps []complex128, a, b int, d0, d1, d2, d3 complex128, base, lo, hi uint64) {
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

type refNZ struct {
	r, c int
	v    complex128
}

// refEntries lists the nonzeros of a row-major 4×4 in row-major order.
func refEntries(m *[16]complex128) []refNZ {
	var out []refNZ
	for i, v := range m {
		if v != 0 {
			out = append(out, refNZ{r: i / 4, c: i % 4, v: v})
		}
	}
	return out
}

func refSparse2(amps []complex128, a, b int, entries []refNZ, base, lo, hi uint64) {
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
		for _, e := range entries {
			out[e.r] += e.v * in[e.c]
		}
		amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]] = out[0], out[1], out[2], out[3]
	}
}

func refDense2(amps []complex128, a, b int, m *[16]complex128, base, lo, hi uint64) {
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

func refCX(amps []complex128, ctrl, tgt int) {
	for rest := uint64(0); rest < uint64(len(amps)/4); rest++ {
		base := core.InsertTwoZeroBits(rest, ctrl, tgt)
		i10 := base | 1<<uint(ctrl)
		i11 := i10 | 1<<uint(tgt)
		amps[i10], amps[i11] = amps[i11], amps[i10]
	}
}

func refCZ(amps []complex128, a, b int) {
	for rest := uint64(0); rest < uint64(len(amps)/4); rest++ {
		i11 := core.InsertTwoZeroBits(rest, a, b) | 1<<uint(a) | 1<<uint(b)
		amps[i11] = -amps[i11]
	}
}

func refRZ(amps []complex128, theta float64, q int) {
	em := cmplx.Exp(complex(0, -theta/2))
	ep := cmplx.Exp(complex(0, theta/2))
	for rest := uint64(0); rest < uint64(len(amps)/2); rest++ {
		i0 := core.InsertZeroBit(rest, q)
		amps[i0] *= em
		amps[i0|1<<uint(q)] *= ep
	}
}

// refKind classifies a 4×4 the way the reference kernels split it:
// diagonal, at most 8 nonzeros (the sparse list), or dense.
func refKind(m *[16]complex128) fusedOpKind {
	nnz, diag := 0, true
	for i, v := range m {
		if v != 0 {
			nnz++
			if i/4 != i%4 {
				diag = false
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

// refSweep runs op's reference kernel on [lo, hi) of the region at base,
// reading the lowered op's matrix: a sparse op's nonzeros are the
// nonzeros of its chopped row-major matrix.
func refSweep(amps []complex128, op *fusedOp, base, lo, hi uint64) {
	switch op.kind {
	case fusedDiag1:
		refDiag1(amps, op.a, op.m[0], op.m[1], base, lo, hi)
	case fusedDense1:
		refDense1(amps, op.a, op.m[0], op.m[1], op.m[2], op.m[3], base, lo, hi)
	case fusedDiag2:
		refDiag2(amps, op.a, op.b, op.m[0], op.m[1], op.m[2], op.m[3], base, lo, hi)
	case fusedSparse2:
		refSparse2(amps, op.a, op.b, refEntries(&op.m), base, lo, hi)
	case fusedDense2:
		refDense2(amps, op.a, op.b, &op.m, base, lo, hi)
	}
}

// refRunPerOp is the per-op full-sweep executor: every op of the program,
// in program order, one pass over the whole state on the reference
// kernels; markers through ApplyGate.
func refRunPerOp(s *State, p *FusedProgram) {
	for li := range p.segs {
		for oi := range p.segs[li].ops {
			op := &p.segs[li].ops[oi]
			if op.kind == fusedMarker {
				s.ApplyGate(op.marker)
				continue
			}
			refSweep(s.amps, op, 0, 0, uint64(len(s.amps))>>refArity(op))
		}
	}
}

// refArity is log2 of the amplitudes one rest index of op's kernel
// touches: its qubit count.
func refArity(op *fusedOp) uint {
	switch op.kind {
	case fusedDense1, fusedDiag1:
		return 1
	}
	return 2
}

func randomAmps(rng *core.RNG, n int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	for i := range amps {
		amps[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return amps
}

func randomComplex(rng *core.RNG) complex128 {
	return complex(rng.Float64()*2-1, rng.Float64()*2-1)
}

// randomMatrix4 draws a 4×4 of one shape: "diag", "sparse" (one or two
// nonzeros per row, in random columns) or "dense".
func randomMatrix4(rng *core.RNG, shape string) *linalg.Matrix {
	m := linalg.NewMatrix(4, 4)
	for r := 0; r < 4; r++ {
		switch shape {
		case "diag":
			m.Set(r, r, randomComplex(rng))
		case "sparse":
			c0 := rng.Intn(4)
			m.Set(r, c0, randomComplex(rng))
			if rng.Intn(2) == 0 {
				m.Set(r, (c0+1+rng.Intn(3))%4, randomComplex(rng))
			}
		default:
			for c := 0; c < 4; c++ {
				m.Set(r, c, randomComplex(rng))
			}
		}
	}
	return m
}

func randomMatrix2(rng *core.RNG, diag bool) *linalg.Matrix {
	m := linalg.NewMatrix(2, 2)
	m.Set(0, 0, randomComplex(rng))
	m.Set(1, 1, randomComplex(rng))
	if !diag {
		m.Set(0, 1, randomComplex(rng))
		m.Set(1, 0, randomComplex(rng))
	}
	return m
}

func requireBitEqual(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: amplitude %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// randomChunk picks an aligned region of the 2^n amplitudes that holds
// every qubit below top, and a random [lo, hi) of its rest indices for
// an op of the given arity, so chunk bounds cut the kernels' runs.
func randomChunk(rng *core.RNG, n, top int, arity uint) (base, lo, hi uint64) {
	m := top + 1 + rng.Intn(n-top)
	base = uint64(rng.Intn(1<<uint(n-m))) << uint(m)
	rests := uint64(1) << (uint(m) - arity)
	lo = uint64(rng.Intn(int(rests) + 1))
	hi = lo + uint64(rng.Intn(int(rests-lo)+1))
	return base, lo, hi
}

// TestShapeKernelsBitEqualReference holds the five shape kernels, the
// interpreter's Apply1Q/Apply2Q and the CX/CZ/RZ fast paths to the bits
// of the element-wise reference loops: random matrices of every shape
// (sparse ones with one or two nonzeros per row), every qubit position
// and both orders of a pair, on 1–14 qubits, over random regions and
// chunk bounds, serial and pooled.
func TestShapeKernelsBitEqualReference(t *testing.T) {
	rng := core.NewRNG(0xB17E)
	modes := []Options{{Workers: 1}, {Workers: 3, ParallelThreshold: 1}}
	for n := 1; n <= 14; n++ {
		for q := 0; q < n; q++ {
			for _, diag := range []bool{true, false} {
				u := randomMatrix2(rng, diag)
				op := lower1Q(gate.Gate{Kind: gate.Fused1Q, Qubits: []int{q}, Matrix: u})
				if want := map[bool]fusedOpKind{true: fusedDiag1, false: fusedDense1}[diag]; op.kind != want {
					t.Fatalf("n=%d q=%d: lowered to kind %d, want %d", n, q, op.kind, want)
				}
				for rep := 0; rep < 3; rep++ {
					amps := randomAmps(rng, n)
					want := append([]complex128(nil), amps...)
					base, lo, hi := randomChunk(rng, n, q, 1)
					op.sweep(amps[base:], op.a, op.b, lo, hi)
					refSweep(want, &op, base, lo, hi)
					requireBitEqual(t, "1q kernel", amps, want)
				}
				for _, o := range modes {
					s := New(n, o)
					copy(s.amps, randomAmps(rng, n))
					want := s.AmplitudesCopy()
					s.EnsurePool(o.Workers)
					s.Apply1Q(u, q)
					refDense1(want, q, u.At(0, 0), u.At(0, 1), u.At(1, 0), u.At(1, 1), 0, 0, uint64(len(want)/2))
					requireBitEqual(t, "Apply1Q", s.amps, want)

					theta := (rng.Float64() - 0.5) * 4 * math.Pi
					s.ApplyGate(gate.NewP(gate.RZ, []float64{theta}, q))
					refRZ(want, theta, q)
					requireBitEqual(t, "RZ", s.amps, want)
				}
			}
		}
		// Every ordered pair below 10 qubits; a sample of them above.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b || (n > 9 && rng.Intn(4) != 0) {
					continue
				}
				for _, shape := range []string{"diag", "sparse", "dense"} {
					u := randomMatrix4(rng, shape)
					op := lower2Q(gate.Gate{Kind: gate.Fused2Q, Qubits: []int{a, b}, Matrix: u})
					var m [16]complex128
					for i := range m {
						m[i] = refChop(u.At(i/4, i%4))
					}
					if op.kind != refKind(&m) {
						t.Fatalf("n=%d (%d,%d) %s: lowered to kind %d, want %d", n, a, b, shape, op.kind, refKind(&m))
					}
					for rep := 0; rep < 3; rep++ {
						amps := randomAmps(rng, n)
						want := append([]complex128(nil), amps...)
						base, lo, hi := randomChunk(rng, n, max(a, b), 2)
						op.sweep(amps[base:], op.a, op.b, lo, hi)
						refSweep(want, &op, base, lo, hi)
						requireBitEqual(t, "2q kernel "+shape, amps, want)
					}
					for _, o := range modes {
						s := New(n, o)
						copy(s.amps, randomAmps(rng, n))
						want := s.AmplitudesCopy()
						s.EnsurePool(o.Workers)
						s.Apply2Q(u, a, b)
						if refKind(&m) == fusedDense2 {
							refDense2(want, a, b, &m, 0, 0, uint64(len(want)/4))
						} else {
							refSparse2(want, a, b, refEntries(&m), 0, 0, uint64(len(want)/4))
						}
						requireBitEqual(t, "Apply2Q "+shape, s.amps, want)
					}
				}
				for _, o := range modes {
					s := New(n, o)
					copy(s.amps, randomAmps(rng, n))
					want := s.AmplitudesCopy()
					s.EnsurePool(o.Workers)
					s.ApplyGate(gate.New(gate.CX, a, b))
					refCX(want, a, b)
					requireBitEqual(t, "CX", s.amps, want)
					s.ApplyGate(gate.New(gate.CZ, a, b))
					refCZ(want, a, b)
					requireBitEqual(t, "CZ", s.amps, want)
				}
			}
		}
	}
}

// markedCircuit is a random circuit with a measurement and a reset in
// the middle, so programs hold marker layers between unitary ones.
func markedCircuit(seed uint64, n int) *circuit.Circuit {
	c := randomCircuit(seed, n, 4*n)
	c.Append(gate.New(gate.Measure, int(seed%uint64(n))))
	c.Append(gate.New(gate.Reset, int((seed/3)%uint64(n))))
	for _, g := range randomCircuit(seed+1, n, 4*n).Gates {
		c.Append(g)
	}
	return c
}

// runAndReference runs p on a random state through runFused and,
// separately, through the per-op reference executor, and requires the
// same bits.
func runAndReference(t *testing.T, what string, p *FusedProgram, n int, o Options, seed uint64, tileBits int) {
	t.Helper()
	s := randomState(t, seed, n, o)
	ref := randomState(t, seed, n, o)
	if o.Workers > 1 {
		s.EnsurePool(o.Workers)
		ref.EnsurePool(o.Workers)
	}
	s.runFused(p, tileBits)
	refRunPerOp(ref, p)
	requireBitEqual(t, what, s.amps, ref.amps)
}

// TestRunFusedBitEqualPerOpReference holds RunFused to the bits of the
// per-op full-sweep executor: random circuits of 2–16 qubits with
// markers in the middle, at several tile widths, with segments as wide as
// the default tile and as wide as the run's, serial and pooled; a
// program narrower than its state; and two states sharing one program
// concurrently (run it under -race).
func TestRunFusedBitEqualPerOpReference(t *testing.T) {
	modes := map[string]Options{
		"serial": {Workers: 1},
		"pooled": {Workers: 3, ParallelThreshold: 1},
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16} {
		c := markedCircuit(uint64(0xF0+n), n)
		p := CompileFused(c)
		for _, tileBits := range []int{2, 3, 5, tuning.TileBits} {
			// Segments as wide as the tiles, so small registers gather too.
			narrow := compileFused(c, tileBits)
			for name, o := range modes {
				runAndReference(t, name, p, n, o, uint64(n*31+tileBits), tileBits)
				runAndReference(t, name+", narrow segments", narrow, n, o, uint64(n*37+tileBits), tileBits)
			}
		}
	}

	narrow := CompileFused(markedCircuit(0x6, 6))
	for name, o := range modes {
		runAndReference(t, "6-qubit program on 14 qubits, "+name, narrow, 14, o, 0x614, tuning.TileBits)
	}

	const n = 14
	shared := CompileFused(markedCircuit(0x5A, n))
	ref := randomState(t, 0x5A, n, Options{Workers: 2})
	refRunPerOp(ref, shared)
	var wg sync.WaitGroup
	got := make([]*State, 2)
	for i := range got {
		got[i] = randomState(t, 0x5A, n, Options{Workers: 2})
		wg.Add(1)
		go func(s *State) {
			defer wg.Done()
			s.RunFused(shared)
		}(got[i])
	}
	wg.Wait()
	for i, s := range got {
		requireBitEqual(t, "shared program, state "+string(rune('A'+i)), s.amps, ref.amps)
	}
}

package state

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/kernel/tuning"
)

// random1QKinds / random2QKinds cover every supported unitary gate kind
// for the fused-vs-unfused property tests.
var random1QKinds = []gate.Kind{
	gate.X, gate.Y, gate.Z, gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg,
	gate.SX, gate.RX, gate.RY, gate.RZ, gate.P, gate.U3,
}

var random2QKinds = []gate.Kind{
	gate.CX, gate.CY, gate.CZ, gate.CH, gate.CP, gate.CRX, gate.CRY,
	gate.CRZ, gate.SWAP, gate.ISWAP, gate.RXX, gate.RYY, gate.RZZ,
}

func paramCount(k gate.Kind) int {
	switch k {
	case gate.RX, gate.RY, gate.RZ, gate.P, gate.CP, gate.CRX, gate.CRY,
		gate.CRZ, gate.RXX, gate.RYY, gate.RZZ:
		return 1
	case gate.U3:
		return 3
	}
	return 0
}

// randomCircuit builds a deterministic pseudo-random 1q/2q gate mix
// (plus the occasional barrier, which flushes the transpiler's pending
// fusion blocks).
func randomCircuit(seed uint64, n, depth int) *circuit.Circuit {
	rng := core.NewRNG(seed)
	c := circuit.New(n)
	for i := 0; i < depth; i++ {
		r := rng.Float64()
		switch {
		case r < 0.04:
			c.Append(gate.New(gate.Barrier))
		case r < 0.5 || n < 2:
			k := random1QKinds[int(rng.Uint64()%uint64(len(random1QKinds)))]
			g := gate.Gate{Kind: k, Qubits: []int{int(rng.Uint64() % uint64(n))}}
			for p := 0; p < paramCount(k); p++ {
				g.Params = append(g.Params, (rng.Float64()-0.5)*4*math.Pi)
			}
			c.Append(g)
		default:
			k := random2QKinds[int(rng.Uint64()%uint64(len(random2QKinds)))]
			a := int(rng.Uint64() % uint64(n))
			b := int(rng.Uint64() % uint64(n))
			for b == a {
				b = int(rng.Uint64() % uint64(n))
			}
			g := gate.Gate{Kind: k, Qubits: []int{a, b}}
			for p := 0; p < paramCount(k); p++ {
				g.Params = append(g.Params, (rng.Float64()-0.5)*4*math.Pi)
			}
			c.Append(g)
		}
	}
	return c
}

func maxAmpDeviation(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		d := real(a[i]) - real(b[i])
		di := imag(a[i]) - imag(b[i])
		if m := math.Hypot(d, di); m > worst {
			worst = m
		}
	}
	return worst
}

// TestFusedMatchesUnfusedRandomCircuits is the core property test: a
// compiled fused program must reproduce gate-at-a-time execution to
// 1e-12 on random circuits over every supported gate kind, 2–12 qubits,
// on both the serial and the pooled path.
func TestFusedMatchesUnfusedRandomCircuits(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for rep := 0; rep < 3; rep++ {
			seed := uint64(n*100 + rep + 1)
			c := randomCircuit(seed, n, 8*n)
			ref := New(n, Options{Workers: 1})
			ref.Run(c)

			p := CompileFused(c)
			serial := New(n, Options{Workers: 1})
			serial.RunFused(p)
			if dev := maxAmpDeviation(ref.Amplitudes(), serial.Amplitudes()); dev > 1e-12 {
				t.Fatalf("n=%d rep=%d serial fused deviates by %g", n, rep, dev)
			}

			// Pooled path with the threshold forced low so the pool engages
			// even at small dims.
			pooled := New(n, Options{Workers: 4, ParallelThreshold: 1})
			pooled.EnsurePool(4)
			pooled.RunFused(p)
			if dev := maxAmpDeviation(ref.Amplitudes(), pooled.Amplitudes()); dev > 1e-12 {
				t.Fatalf("n=%d rep=%d pooled fused deviates by %g", n, rep, dev)
			}
		}
	}
}

// tiled reports whether a segment runs on a state of amps amplitudes,
// with tiles of 2^tileBits, as a blocked sweep in place: its tile
// qubits are the low bits and the state holds more than one tile.
func (sg *segment) tiled(tileBits, amps int) bool {
	w, tm := tileGeometry(sg.mask, tileBits, bits.TrailingZeros(uint(amps)))
	return tm == 1<<w-1 && amps > 1<<w
}

// segmentKinds counts the segments RunFused executes in place and
// gathered on a state of n qubits; a segment spanning the whole state
// is neither.
func segmentKinds(p *FusedProgram, n int) (inPlace, gathered int) {
	for i := range p.segs {
		sg := &p.segs[i]
		w, tm := tileGeometry(sg.mask, tuning.TileBits, n)
		switch {
		case sg.ops[0].kind == fusedMarker || w == uint(n):
		case tm == 1<<w-1:
			inPlace++
		default:
			gathered++
		}
	}
	return inPlace, gathered
}

// TestFusedTiledSweep runs widths above the tile size (2^TileBits
// amplitudes), where segments run tile by tile both in place and
// gathered, and checks them against the unfused reference. Width 10 is
// the other side of the constant: every segment spans the whole state.
func TestFusedTiledSweep(t *testing.T) {
	if in, ga := segmentKinds(CompileFused(randomCircuit(7010, 10, 100)), 10); in+ga != 0 {
		t.Fatalf("%d segments tile below the tile size", in+ga)
	}
	for _, n := range []int{12, 13} {
		// A prefix below qubit TileBits, fenced by a barrier so no block
		// fuses across it, makes an in-place segment; the random rest
		// mostly gathers.
		c := circuit.New(n)
		for _, g := range randomCircuit(uint64(7100+n), tuning.TileBits, 40).Gates {
			c.Append(g)
		}
		c.Append(gate.New(gate.Barrier))
		for _, g := range randomCircuit(uint64(7000+n), n, 10*n).Gates {
			c.Append(g)
		}
		ref := New(n, Options{Workers: 1})
		ref.Run(c)
		s := New(n, Options{Workers: 1})
		p := CompileFused(c)
		if in, ga := segmentKinds(p, n); in == 0 || ga == 0 {
			t.Fatalf("n=%d: %d segments in place, %d gathered; want both", n, in, ga)
		}
		s.RunFused(p)
		if dev := maxAmpDeviation(ref.Amplitudes(), s.Amplitudes()); dev > 1e-12 {
			t.Fatalf("n=%d tiled fused deviates by %g", n, dev)
		}
		pooled := New(n, Options{Workers: 3, ParallelThreshold: 1})
		pooled.EnsurePool(3)
		pooled.RunFused(p)
		if dev := maxAmpDeviation(ref.Amplitudes(), pooled.Amplitudes()); dev > 1e-12 {
			t.Fatalf("n=%d tiled pooled fused deviates by %g", n, dev)
		}
	}
}

// TestFusedOrderConvention runs the shared two-qubit convention table
// (order2QConventionCases, also exercised by TestApply2QOrderConvention)
// through the fused path, pinning the fused kernels to the same
// first-qubit-is-high-bit matrix convention as Apply2Q.
func TestFusedOrderConvention(t *testing.T) {
	for _, pair := range order2QConventionCases.pairs {
		for _, g := range order2QConventionCases.gates(pair[0], pair[1]) {
			s := New(3, Options{})
			s.Run(circuit.New(3).H(0).T(0).H(1).S(1).H(2))
			ref := s.AmplitudesCopy()
			one := circuit.New(3)
			one.Append(g)
			s.RunFused(CompileFused(one))
			u := circuit.EmbedGate(g, 3)
			want := u.MulVec(ref)
			for i := range want {
				if !core.AlmostEqualC(s.amps[i], want[i], 1e-10) {
					t.Fatalf("gate %v pair %v: index %d: got %v want %v", g, pair, i, s.amps[i], want[i])
				}
			}
		}
	}
}

// TestFusedGateAccounting: fused execution must count exactly the
// transpiled gates (the paper's Figure 4 currency), not the source
// gates.
func TestFusedGateAccounting(t *testing.T) {
	c := randomCircuit(42, 6, 60)
	p := CompileFused(c)
	tc := circuit.Transpile(c, circuit.DefaultTranspileOptions())
	if p.GatesAfter() != tc.GateCount() {
		t.Fatalf("GatesAfter %d != transpiled count %d", p.GatesAfter(), tc.GateCount())
	}
	if p.GatesBefore() != c.GateCount() {
		t.Fatalf("GatesBefore %d != source count %d", p.GatesBefore(), c.GateCount())
	}
	s := New(6, Options{Workers: 1})
	s.RunFused(p)
	if got := s.GatesApplied(); got != uint64(p.GatesAfter()) {
		t.Fatalf("fused run applied %d gates, program has %d", got, p.GatesAfter())
	}
}

// TestFusedMarkers: measurement/reset markers must execute in program
// order through the fused path.
func TestFusedMarkers(t *testing.T) {
	c := circuit.New(2)
	c.X(0)
	c.Append(gate.New(gate.Measure, 0)) // deterministic outcome 1
	c.Append(gate.New(gate.Reset, 0))   // back to |0⟩
	c.X(1)
	s := New(2, Options{Workers: 1})
	s.RunFused(CompileFused(c))
	// Expect |10⟩ (qubit 1 set, qubit 0 reset): index 2.
	if got := real(s.amps[2] * complex(real(s.amps[2]), -imag(s.amps[2]))); math.Abs(got-1) > 1e-12 {
		t.Fatalf("marker handling wrong: amps %v", s.amps)
	}
}

// TestRunOptimizedFallback: RunOptimized is compile-then-RunFused at
// every width, with no plain path to fall back to, so it must agree with
// Run on a state far below one tile (4 qubits) and on one above both the
// tile size and the gate-pool threshold (14 qubits).
func TestRunOptimizedFallback(t *testing.T) {
	for _, n := range []int{4, 14} {
		c := randomCircuit(uint64(99+n), n, 8*n)
		ref := New(n, Options{Workers: 1})
		ref.Run(c)
		s := New(n, Options{Workers: 2})
		s.RunOptimized(c)
		if dev := maxAmpDeviation(ref.Amplitudes(), s.Amplitudes()); dev > 1e-12 {
			t.Fatalf("n=%d: RunOptimized deviates from Run by %g", n, dev)
		}
		if want := uint64(CompileFused(c).GatesAfter()); s.GatesApplied() != want {
			t.Fatalf("n=%d: RunOptimized applied %d gates, the fused program has %d", n, s.GatesApplied(), want)
		}
	}
}

// TestFusedLayerPacking sanity-checks segment packing: ops within the
// tile width share one sweep, a marker runs alone, and more qubits than
// the tile width split.
func TestFusedLayerPacking(t *testing.T) {
	c := circuit.New(4)
	c.H(0).H(1).H(2).CX(0, 3) // four qubits: one segment
	p := CompileFused(c)
	if p.NumSweeps() != 1 {
		t.Fatalf("ops on 4 qubits packed into %d sweeps, want 1", p.NumSweeps())
	}
	c2 := circuit.New(2)
	c2.H(0).CX(0, 1) // fuses into a single 2q block
	p2 := CompileFused(c2)
	if p2.GatesAfter() != 1 {
		t.Fatalf("H+CX fused into %d gates, want 1", p2.GatesAfter())
	}
	c3 := circuit.New(4)
	c3.CX(0, 1).CX(1, 2).CX(2, 3)
	c3.Append(gate.New(gate.Measure, 3))
	c3.CX(3, 2)
	if got := compileFused(c3, 3).NumSweeps(); got != 4 {
		t.Fatalf("3-qubit segments around a marker: %d sweeps, want 4 (CX01 CX12 | CX23 | measure | CX32)", got)
	}
}

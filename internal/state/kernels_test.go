package state

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
)

// randomState returns a seeded normalised n-qubit state with no
// structure a kernel bug could hide behind.
func randomState(t *testing.T, seed uint64, n int, opts Options) *State {
	t.Helper()
	rng := core.NewRNG(seed)
	amps := make([]complex128, 1<<uint(n))
	norm := 0.0
	for i := range amps {
		amps[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	for i := range amps {
		amps[i] /= complex(math.Sqrt(norm), 0)
	}
	s, err := FromAmplitudes(amps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKernelsMatchDenseUnitary drives each of the five shape kernels
// through every way the package reaches it — the reference interpreter
// (Apply1Q/Apply2Q), RunFused's full-state sweep and RunFused's tile
// sweep — serial and pooled, with the op's qubits below a tile
// boundary, straddling it and above it, in both qubit orders, and
// compares against the circuit's dense Unitary() applied to the same
// random state. A 3-bit tile on 6 qubits puts the boundary where a
// 64×64 reference can reach both sides of it.
func TestKernelsMatchDenseUnitary(t *testing.T) {
	const n, tileBits = 6, 3
	dense := gate.New(gate.CH, 0, 1).Matrix4().
		Mul(gate.NewP(gate.RXX, []float64{0.6}, 0, 1).Matrix4()).
		Mul(gate.New(gate.ISWAP, 0, 1).Matrix4())
	shapes := []struct {
		name  string
		kind  fusedOpKind
		arity int
		gate  func(qs []int) gate.Gate
	}{
		{"diag1", fusedDiag1, 1, func(qs []int) gate.Gate { return gate.NewP(gate.RZ, []float64{0.7}, qs...) }},
		{"dense1", fusedDense1, 1, func(qs []int) gate.Gate { return gate.NewP(gate.RY, []float64{0.9}, qs...) }},
		{"diag2", fusedDiag2, 2, func(qs []int) gate.Gate { return gate.NewP(gate.RZZ, []float64{1.1}, qs...) }},
		{"sparse2", fusedSparse2, 2, func(qs []int) gate.Gate { return gate.NewP(gate.RXX, []float64{0.7}, qs...) }},
		{"dense2", fusedDense2, 2, func(qs []int) gate.Gate { return gate.Gate{Kind: gate.Fused2Q, Qubits: qs, Matrix: dense} }},
	}
	placements := map[int][]struct {
		name  string
		below bool
		qs    []int
	}{
		1: {{"below", true, []int{1}}, {"above", false, []int{4}}},
		2: {
			{"below a<b", true, []int{0, 2}}, {"below a>b", true, []int{2, 0}},
			{"straddle a<b", false, []int{1, 4}}, {"straddle a>b", false, []int{4, 1}},
			{"above a<b", false, []int{3, 5}}, {"above a>b", false, []int{5, 3}},
		},
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"serial", Options{Workers: 1}},
		{"pooled", Options{Workers: 3, ParallelThreshold: 1}},
	}
	for _, sh := range shapes {
		for _, pl := range placements[sh.arity] {
			g := sh.gate(pl.qs)
			one := circuit.New(n)
			one.Append(g)
			// A companion on the lowest free qubit makes a two-op layer,
			// the smallest one the tile sweep takes.
			free := 0
			for free == pl.qs[0] || free == pl.qs[len(pl.qs)-1] {
				free++
			}
			two := circuit.New(n)
			two.Append(g)
			two.H(free)
			pOne, pTwo := CompileFused(one), CompileFused(two)
			if got := pOne.segs[0].ops[0].kind; got != sh.kind {
				t.Fatalf("%s %s: lowered to kind %d, want %d", sh.name, pl.name, got, sh.kind)
			}
			if tiled := len(pTwo.segs) == 1 && pTwo.segs[0].tiled(tileBits, 1<<n); tiled != pl.below {
				t.Fatalf("%s %s: tiled = %v, want %v", sh.name, pl.name, tiled, pl.below)
			}
			entries := []struct {
				name string
				c    *circuit.Circuit
				run  func(s *State)
			}{
				{"apply", one, func(s *State) {
					if sh.arity == 1 {
						s.Apply1Q(g.Matrix2(), pl.qs[0])
					} else {
						s.Apply2Q(g.Matrix4(), pl.qs[0], pl.qs[1])
					}
				}},
				{"fused op-by-op", one, func(s *State) { s.runFused(pOne, tileBits) }},
				{"fused tiled", two, func(s *State) { s.runFused(pTwo, tileBits) }},
			}
			for _, e := range entries {
				u := e.c.Unitary()
				for _, m := range modes {
					s := randomState(t, 20, n, m.opts)
					if m.opts.Workers > 1 {
						s.EnsurePool(m.opts.Workers)
					}
					want := u.MulVec(s.AmplitudesCopy())
					e.run(s)
					if dev := maxAmpDeviation(want, s.Amplitudes()); dev > 1e-12 {
						t.Errorf("%s, %s, %s, %s: deviates from the dense unitary by %g", sh.name, pl.name, e.name, m.name, dev)
					}
				}
			}
		}
	}
}

// interpreterAllocCircuit is the circuit TestInterpreterAllocsPinned
// counts: per layer RY·H·RZ on every qubit, then CX·RZZ·RXX on every
// neighbouring pair — each interpreter entry (dense 1q, the RZ and CX
// fast paths, sparse 2q) in the proportions of a small served job.
func interpreterAllocCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < n; q++ {
			c.RY(0.3, q).H(q).RZ(0.5, q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
			c.Append(gate.NewP(gate.RZZ, []float64{0.7}, q, q+1))
			c.Append(gate.NewP(gate.RXX, []float64{0.9}, q, q+1))
		}
	}
	return c
}

// TestInterpreterAllocsPinned holds Run's heap allocations at what they
// were before Apply1Q/Apply2Q were moved onto the shared kernels (122
// at 4 qubits, 266 at 8, measured at the parent commit): the 4–8-qubit
// jobs a daemon serves spend their time in per-gate overhead, and one
// extra object per gate — a fusedOp captured by the chunk closure, say —
// would not show in any amplitude check.
func TestInterpreterAllocsPinned(t *testing.T) {
	for n, parent := range map[int]float64{4: 122, 8: 266} {
		c := interpreterAllocCircuit(n)
		s := New(n, Options{Workers: 1})
		if got := testing.AllocsPerRun(20, func() { s.Run(c) }); got > parent {
			t.Errorf("n=%d: Run allocates %v objects per circuit, parent commit %v", n, got, parent)
		}
	}
}

// TestNoKernelForArityPanicsWithSentinel: a gate on three qubits has no
// kernel; the interpreter and the compiler both reject it at the one
// classification site, with the package's wrapped sentinel rather than
// a bare string.
func TestNoKernelForArityPanicsWithSentinel(t *testing.T) {
	g := gate.Gate{Kind: gate.Fused2Q, Qubits: []int{0, 1, 2}}
	for name, f := range map[string]func(){
		"ApplyGate": func() { New(3, Options{}).ApplyGate(g) },
		"lower":     func() { lower(g) },
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, core.ErrInvalidArgument) {
					t.Errorf("%s: panic value %v does not wrap core.ErrInvalidArgument", name, fmt.Sprint(err))
				}
			}()
			f()
		}()
	}
}

package state

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/kernel/tuning"
)

// randomGateOn draws one gate of the property-test gate set on the given
// qubits: a 1q kind when one qubit is given, a 2q kind when two are.
func randomGateOn(rng *core.RNG, qs ...int) gate.Gate {
	kinds := random1QKinds
	if len(qs) == 2 {
		kinds = random2QKinds
	}
	k := kinds[rng.Intn(len(kinds))]
	g := gate.Gate{Kind: k, Qubits: qs}
	for p := 0; p < paramCount(k); p++ {
		g.Params = append(g.Params, (rng.Float64()-0.5)*4*math.Pi)
	}
	return g
}

// firstTouchCircuit is a random circuit on n qubits that first touches
// them in the given order: each new qubit gets a 1q gate and a 2q gate
// joining it to one already touched, followed by a few random gates on
// the touched qubits only. With marked set, a measurement and a reset of
// touched qubits sit half-way through the order.
func firstTouchCircuit(seed uint64, n int, order []int, marked bool) *circuit.Circuit {
	rng := core.NewRNG(seed)
	c := circuit.New(n)
	var touched []int
	pick := func() int { return touched[rng.Intn(len(touched))] }
	for i, q := range order {
		c.Append(randomGateOn(rng, q))
		if len(touched) > 0 {
			p := pick()
			if rng.Intn(2) == 0 {
				c.Append(randomGateOn(rng, p, q))
			} else {
				c.Append(randomGateOn(rng, q, p))
			}
		}
		touched = append(touched, q)
		for k := rng.Intn(3); k > 0; k-- {
			if a, b := pick(), pick(); a != b {
				c.Append(randomGateOn(rng, a, b))
			} else {
				c.Append(randomGateOn(rng, a))
			}
		}
		if marked && i == len(order)/2 {
			c.Append(gate.New(gate.Measure, pick()))
			c.Append(gate.New(gate.Reset, pick()))
		}
	}
	return c
}

// touchOrders returns the ascending, descending and a random first-touch
// order of n qubits.
func touchOrders(rng *core.RNG, n int) map[string][]int {
	asc, desc, random := make([]int, n), make([]int, n), make([]int, n)
	for q := range asc {
		asc[q], desc[q], random[q] = q, n-1-q, q
	}
	rng.Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	return map[string][]int{"ascending": asc, "descending": desc, "random": random}
}

// freshAndReference runs p three times on a state from New — fresh, a
// second time straight after, and again after ResetZero — and the same
// steps through the per-op full-sweep reference on a second state from
// New, and requires the same amplitudes after every step.
func freshAndReference(t *testing.T, what string, p *FusedProgram, n int, o Options, tileBits int) {
	t.Helper()
	s, ref := New(n, o), New(n, o)
	if o.Workers > 1 {
		s.EnsurePool(o.Workers)
		ref.EnsurePool(o.Workers)
	}
	s.runFused(p, tileBits)
	refRunPerOp(ref, p)
	requireBitEqual(t, what+", from New", s.amps, ref.amps)
	s.runFused(p, tileBits)
	refRunPerOp(ref, p)
	requireBitEqual(t, what+", second run", s.amps, ref.amps)
	s.ResetZero()
	ref.ResetZero()
	s.runFused(p, tileBits)
	refRunPerOp(ref, p)
	requireBitEqual(t, what+", after ResetZero", s.amps, ref.amps)
}

// TestRunFusedFreshStateBitEqualReference holds RunFused on states that
// start at |0…0⟩ — from New and from ResetZero, where most amplitudes
// are zeros no op has reached yet — to the bits of the per-op full-sweep
// reference: random circuits that first touch their qubits in ascending,
// descending and random order, with and without an X prefix and markers
// half-way, at several tile widths with segments as wide as the default
// tile and as the run's, serial and pooled; a program narrower than its
// state; two runs in a row.
func TestRunFusedFreshStateBitEqualReference(t *testing.T) {
	modes := map[string]Options{
		"serial": {Workers: 1},
		"pooled": {Workers: 3, ParallelThreshold: 1},
	}
	rng := core.NewRNG(0xF2E5)
	for _, n := range []int{2, 4, 7, 12, 14} {
		for orderName, order := range touchOrders(rng, n) {
			for _, variant := range []string{"plain", "X prefix", "markers"} {
				seed := rng.Uint64()
				c := firstTouchCircuit(seed, n, order, variant == "markers")
				if variant == "X prefix" {
					pre := circuit.New(n)
					for q := 0; q < n; q += 2 {
						pre.X(order[q])
					}
					c = pre.Compose(c)
				}
				p := CompileFused(c)
				for _, tileBits := range []int{2, 3, 5, tuning.TileBits} {
					narrow := compileFused(c, tileBits)
					for modeName, o := range modes {
						what := fmt.Sprintf("n=%d %s %s tileBits=%d %s", n, orderName, variant, tileBits, modeName)
						freshAndReference(t, what, p, n, o, tileBits)
						freshAndReference(t, what+", narrow segments", narrow, n, o, tileBits)
					}
				}
			}
		}
	}

	six := CompileFused(firstTouchCircuit(0x6E, 6, []int{3, 1, 5, 0, 4, 2}, true))
	for modeName, o := range modes {
		for _, tileBits := range []int{2, 5, tuning.TileBits} {
			freshAndReference(t, fmt.Sprintf("6-qubit program on 14 qubits, tileBits=%d %s", tileBits, modeName), six, 14, o, tileBits)
		}
	}
}

// TestEveryWriterDropsSupport puts each way of writing a state's
// amplitudes other than RunFused between ResetZero and RunFused and
// requires the per-op full-sweep reference's bits after the run. The
// state's slice is first filled directly, behind every writer's back,
// so a transforming writer (a gate, a marker) only passes if RunFused
// then treats every amplitude as possibly nonzero.
func TestEveryWriterDropsSupport(t *testing.T) {
	const n = 13
	order := make([]int, n)
	for q := range order {
		order[q] = q
	}
	p := CompileFused(firstTouchCircuit(0x5E7, n, order, false))
	writers := []struct {
		name  string
		write func(t *testing.T, s *State, src *State) *State
	}{
		{"ApplyGate", func(_ *testing.T, s, _ *State) *State {
			s.ApplyGate(gate.NewP(gate.U3, []float64{0.3, 0.5, 0.7}, n-1))
			return s
		}},
		{"Apply1Q", func(_ *testing.T, s, _ *State) *State {
			s.Apply1Q(gate.New(gate.H, n-2).Matrix2(), n-2)
			return s
		}},
		{"Apply2Q", func(_ *testing.T, s, _ *State) *State {
			s.Apply2Q(gate.NewP(gate.RXX, []float64{0.9}, n-1, 3).Matrix4(), n-1, 3)
			return s
		}},
		{"CX", func(_ *testing.T, s, _ *State) *State { s.ApplyGate(gate.New(gate.CX, 2, n-1)); return s }},
		{"CZ", func(_ *testing.T, s, _ *State) *State { s.ApplyGate(gate.New(gate.CZ, n-1, 1)); return s }},
		{"RZ", func(_ *testing.T, s, _ *State) *State {
			s.ApplyGate(gate.NewP(gate.RZ, []float64{1.3}, n-3))
			return s
		}},
		{"measure marker", func(_ *testing.T, s, _ *State) *State { s.ApplyGate(gate.New(gate.Measure, n-1)); return s }},
		{"reset marker", func(_ *testing.T, s, _ *State) *State { s.ApplyGate(gate.New(gate.Reset, 0)); return s }},
		{"Measure", func(_ *testing.T, s, _ *State) *State { s.Measure(n - 2); return s }},
		{"CopyFrom", func(_ *testing.T, s, src *State) *State { s.CopyFrom(src); return s }},
		{"Amplitudes", func(_ *testing.T, s, src *State) *State { copy(s.Amplitudes(), src.amps); return s }},
		{"Clone", func(_ *testing.T, _, src *State) *State { return src.Clone() }},
		{"FromAmplitudes", func(t *testing.T, _, src *State) *State {
			out, err := FromAmplitudes(src.amps, src.opts)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	modes := map[string]Options{
		"serial": {Workers: 1},
		"pooled": {Workers: 3, ParallelThreshold: 1},
	}
	for _, w := range writers {
		for modeName, o := range modes {
			run := func(fused bool) *State {
				src := randomState(t, 0x5EED, n, o)
				s := New(n, o)
				s.ResetZero()
				copy(s.amps, randomState(t, 0xD1A7, n, o).amps)
				s = w.write(t, s, src)
				if o.Workers > 1 {
					s.EnsurePool(o.Workers)
				}
				if fused {
					s.RunFused(p)
				} else {
					refRunPerOp(s, p)
				}
				return s
			}
			got, want := run(true), run(false)
			requireBitEqual(t, w.name+", "+modeName, got.amps, want.amps)
		}
	}
}

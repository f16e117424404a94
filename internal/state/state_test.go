package state

import (
	"maps"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/linalg"
)

func TestNewStartsInZero(t *testing.T) {
	s := New(3, Options{})
	if s.Dim() != 8 || s.NumQubits() != 3 {
		t.Fatal("dimensions wrong")
	}
	if s.amps[0] != 1 {
		t.Error("not |000⟩")
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Error("norm != 1")
	}
}

func TestMemoryBytes(t *testing.T) {
	if MemoryBytes(0) != 16 {
		t.Error("one amplitude = 16 bytes")
	}
	// Paper Fig 1c: 30 qubits ≈ 16 GiB.
	if MemoryBytes(30) != 16<<30 {
		t.Errorf("30 qubits = %d bytes", MemoryBytes(30))
	}
}

func TestApplyXFlipsQubit(t *testing.T) {
	s := New(2, Options{})
	s.ApplyGate(gate.New(gate.X, 1))
	if s.amps[2] != 1 || s.amps[0] != 0 {
		t.Errorf("X on qubit 1: %v", s.amps)
	}
}

func TestBellState(t *testing.T) {
	s := New(2, Options{})
	s.Run(circuit.New(2).H(0).CX(0, 1))
	r := 1 / math.Sqrt2
	if !core.AlmostEqualC(s.amps[0], complex(r, 0), 1e-12) ||
		!core.AlmostEqualC(s.amps[3], complex(r, 0), 1e-12) ||
		!core.AlmostEqualC(s.amps[1], 0, 1e-12) ||
		!core.AlmostEqualC(s.amps[2], 0, 1e-12) {
		t.Errorf("Bell amps: %v", s.amps)
	}
}

func TestGHZProbabilities(t *testing.T) {
	n := 5
	s := New(n, Options{})
	c := circuit.New(n).H(0)
	for q := 0; q < n-1; q++ {
		c.CX(q, q+1)
	}
	s.Run(c)
	probs := s.Probabilities()
	if math.Abs(probs[0]-0.5) > 1e-12 || math.Abs(probs[(1<<n)-1]-0.5) > 1e-12 {
		t.Errorf("GHZ endpoints: %v %v", probs[0], probs[(1<<n)-1])
	}
}

// runBothWays runs the same circuit through the state engine and through
// the dense reference unitary and compares amplitudes.
func runBothWays(t *testing.T, c *circuit.Circuit, workers int) {
	t.Helper()
	s := New(c.NumQubits, Options{Workers: workers, ParallelThreshold: 2})
	s.Run(c)
	u := c.Unitary()
	want := make([]complex128, s.Dim())
	want[0] = 1
	want = u.MulVec(want)
	for i := range want {
		if !core.AlmostEqualC(s.amps[i], want[i], 1e-9) {
			t.Fatalf("amp %d: engine %v vs dense %v", i, s.amps[i], want[i])
		}
	}
}

func TestEngineMatchesDenseRandomCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		c := randomTestCircuit(4, 25, seed)
		runBothWays(t, c, 1)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for seed := uint64(11); seed <= 16; seed++ {
		c := randomTestCircuit(5, 30, seed)
		runBothWays(t, c, 4)
	}
}

func randomTestCircuit(n, gates int, seed uint64) *circuit.Circuit {
	rng := core.NewRNG(seed)
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(10) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.Y(rng.Intn(n))
		case 3:
			c.S(rng.Intn(n))
		case 4:
			c.RX(rng.Float64()*4-2, rng.Intn(n))
		case 5:
			c.RY(rng.Float64()*4-2, rng.Intn(n))
		case 6:
			c.RZ(rng.Float64()*4-2, rng.Intn(n))
		case 7, 8:
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CX(a, b)
		case 9:
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CZ(a, b)
		}
	}
	return c
}

func TestNormPreservedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c := randomTestCircuit(4, 20, seed%1000)
		s := New(4, Options{})
		s.Run(c)
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFastPathsMatchGeneric(t *testing.T) {
	// CX, CZ, RZ fast paths vs generic matrix application.
	for seed := uint64(30); seed <= 34; seed++ {
		prep := randomTestCircuit(4, 12, seed)
		s1 := New(4, Options{})
		s1.Run(prep)
		s2 := s1.Clone()

		s1.applyCX(2, 0)
		s2.Apply2Q(gate.New(gate.CX, 2, 0).Matrix4(), 2, 0)
		for i := range s1.amps {
			if !core.AlmostEqualC(s1.amps[i], s2.amps[i], 1e-12) {
				t.Fatal("CX fast path diverges")
			}
		}

		s1.applyCZ(1, 3)
		s2.Apply2Q(gate.New(gate.CZ, 1, 3).Matrix4(), 1, 3)
		s1.applyRZ(0.77, 2)
		s2.Apply1Q(gate.NewP(gate.RZ, []float64{0.77}, 2).Matrix2(), 2)
		for i := range s1.amps {
			if !core.AlmostEqualC(s1.amps[i], s2.amps[i], 1e-12) {
				t.Fatal("CZ/RZ fast path diverges")
			}
		}
	}
}

func TestGateCounter(t *testing.T) {
	s := New(2, Options{})
	s.Run(circuit.New(2).H(0).CX(0, 1).RZ(0.5, 1).Barrier().I(0))
	if s.GatesApplied() != 3 {
		t.Errorf("counter %d, want 3 (barrier and I free)", s.GatesApplied())
	}
	s.ResetCounters()
	if s.GatesApplied() != 0 {
		t.Error("reset failed")
	}
}

func TestProbability(t *testing.T) {
	s := New(1, Options{})
	s.Run(circuit.New(1).RY(math.Pi/3, 0))
	// P(1) = sin²(π/6) = 0.25.
	if math.Abs(s.Probability(0)-0.25) > 1e-12 {
		t.Errorf("P(1) = %v", s.Probability(0))
	}
}

func TestMeasureCollapses(t *testing.T) {
	s := New(2, Options{Seed: 9})
	s.Run(circuit.New(2).H(0).CX(0, 1))
	m0 := s.Measure(0)
	// After measuring qubit 0 of a Bell state, qubit 1 must agree.
	m1 := s.Measure(1)
	if m0 != m1 {
		t.Errorf("Bell correlation broken: %d vs %d", m0, m1)
	}
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Error("norm after collapse")
	}
}

func TestMeasureDeterministicState(t *testing.T) {
	s := New(1, Options{})
	s.ApplyGate(gate.New(gate.X, 0))
	for i := 0; i < 5; i++ {
		if s.Measure(0) != 1 {
			t.Fatal("|1⟩ must always measure 1")
		}
	}
}

func TestResetQubit(t *testing.T) {
	s := New(2, Options{Seed: 4})
	s.Run(circuit.New(2).X(0).H(1))
	s.ResetQubit(0)
	if s.Probability(0) > 1e-12 {
		t.Error("qubit 0 not reset")
	}
}

func TestSampleCountsMatchProbabilities(t *testing.T) {
	s := New(2, Options{Seed: 7})
	s.Run(circuit.New(2).H(0).CX(0, 1))
	counts := s.SampleCounts(20000)
	if counts[1] != 0 || counts[2] != 0 {
		t.Errorf("impossible outcomes sampled: %v", counts)
	}
	frac := float64(counts[0]) / 20000
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("P(00) sampled as %v", frac)
	}
	// Sampling must not collapse the state.
	if math.Abs(s.Probability(0)-0.5) > 1e-9 {
		t.Error("SampleCounts collapsed the state")
	}
}

// TestSampleCountsAllocatesOnePrefixBuffer: sampling a 16-qubit state
// allocates its 2ⁿ+1 prefix sums and the histogram, not a probability
// vector besides, and draws the same outcomes as SampleProbabilities on
// that vector with the same generator.
func TestSampleCountsAllocatesOnePrefixBuffer(t *testing.T) {
	const n, shots = 16, 200
	prepare := func() *State {
		s := New(n, Options{Seed: 5, Workers: 2})
		c := circuit.New(n)
		for q := 0; q < n; q++ {
			c.RY(0.1*float64(q+1), q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
		s.Run(c)
		return s
	}
	s, ref := prepare(), prepare()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	counts := s.SampleCounts(shots)
	runtime.ReadMemStats(&after)
	prefix := uint64(8 * (1<<n + 1))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc < prefix || alloc > prefix+64<<10 {
		t.Errorf("SampleCounts allocated %d bytes at %d qubits, want its %d-byte prefix sums plus the histogram (< 64 KiB)", alloc, n, prefix)
	}
	want := SampleProbabilities(ref.Probabilities(), shots, ref.rng)
	if !maps.Equal(counts, want) {
		t.Errorf("SampleCounts drew %v, SampleProbabilities %v", counts, want)
	}
}

func TestFromAmplitudes(t *testing.T) {
	r := complex(1/math.Sqrt2, 0)
	s, err := FromAmplitudes([]complex128{r, 0, 0, r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumQubits() != 2 {
		t.Error("width wrong")
	}
	if _, err := FromAmplitudes([]complex128{1, 0, 0}, Options{}); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := FromAmplitudes([]complex128{1, 1}, Options{}); err == nil {
		t.Error("unnormalized accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(2, Options{})
	s.Run(circuit.New(2).H(0))
	c := s.Clone()
	c.ApplyGate(gate.New(gate.X, 1))
	if !core.AlmostEqualC(s.amps[2], 0, 1e-12) {
		t.Error("clone shares amplitudes")
	}
}

func TestCopyFromAndResetZero(t *testing.T) {
	a := New(2, Options{})
	a.Run(circuit.New(2).H(0).CX(0, 1))
	b := New(2, Options{})
	b.CopyFrom(a)
	if !core.AlmostEqualC(b.amps[3], a.amps[3], 1e-12) {
		t.Error("CopyFrom failed")
	}
	b.ResetZero()
	if b.amps[0] != 1 || b.amps[3] != 0 {
		t.Error("ResetZero failed")
	}
}

func TestInnerProduct(t *testing.T) {
	a := New(1, Options{})
	b := New(1, Options{})
	b.ApplyGate(gate.New(gate.X, 0))
	if ip := a.InnerProduct(b); ip != 0 {
		t.Errorf("⟨0|1⟩ = %v", ip)
	}
	if ip := a.InnerProduct(a); !core.AlmostEqualC(ip, 1, 1e-12) {
		t.Errorf("⟨0|0⟩ = %v", ip)
	}
}

func TestApplyFusedGates(t *testing.T) {
	// A fused gate equal to H then T must act like the sequence.
	h := gate.New(gate.H).Matrix2()
	tm := gate.New(gate.T).Matrix2()
	fused := gate.Gate{Kind: gate.Fused1Q, Qubits: []int{0}, Matrix: tm.Mul(h)}
	s1 := New(1, Options{})
	s1.ApplyGate(fused)
	s2 := New(1, Options{})
	s2.Run(circuit.New(1).H(0).T(0))
	for i := range s1.amps {
		if !core.AlmostEqualC(s1.amps[i], s2.amps[i], 1e-12) {
			t.Fatal("fused gate application diverges")
		}
	}
}

// order2QConventionCases is the shared qubit-order convention table:
// every two-qubit execution path — Apply2Q and the fused program kernels
// (TestFusedOrderConvention) — must match the dense EmbedGate embedding
// on these ordered pairs and gate shapes, so the 4×4 matrix convention
// (first listed qubit = high local bit) cannot silently diverge between
// paths. The gate list covers each fused kernel class: diagonal (RZZ,
// CZ), sparse (CX, ISWAP, SWAP, RXX), and dense (CH and a fully dense
// fused product).
var order2QConventionCases = struct {
	pairs [][2]int
	gates func(a, b int) []gate.Gate
}{
	pairs: [][2]int{{0, 1}, {1, 0}, {2, 0}, {0, 2}, {1, 2}, {2, 1}},
	gates: func(a, b int) []gate.Gate {
		dense := gate.New(gate.CH, 0, 1).Matrix4().
			Mul(gate.NewP(gate.RXX, []float64{0.6}, 0, 1).Matrix4()).
			Mul(gate.New(gate.ISWAP, 0, 1).Matrix4())
		return []gate.Gate{
			gate.New(gate.CX, a, b),
			gate.New(gate.CZ, a, b),
			gate.New(gate.CH, a, b),
			gate.New(gate.SWAP, a, b),
			gate.New(gate.ISWAP, a, b),
			gate.NewP(gate.RXX, []float64{0.7}, a, b),
			gate.NewP(gate.RZZ, []float64{1.1}, a, b),
			{Kind: gate.Fused2Q, Qubits: []int{a, b}, Matrix: dense},
		}
	},
}

func TestApply2QOrderConvention(t *testing.T) {
	// Apply2Q with (a,b) where a is the high local bit must match the
	// dense embedding for both orders.
	for _, pair := range order2QConventionCases.pairs {
		for _, g := range order2QConventionCases.gates(pair[0], pair[1]) {
			s := New(3, Options{})
			s.Run(circuit.New(3).H(0).T(0).H(1).S(1).H(2))
			ref := s.AmplitudesCopy()
			s.Apply2Q(g.Matrix4(), pair[0], pair[1])
			u := circuit.EmbedGate(g, 3)
			want := u.MulVec(ref)
			for i := range want {
				if !core.AlmostEqualC(s.amps[i], want[i], 1e-10) {
					t.Fatalf("gate %v pair %v: index %d", g, pair, i)
				}
			}
		}
	}
}

func TestApplyGatePanicsOnBadQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(1, Options{}).Apply1Q(linalg.Identity(2), 5)
}

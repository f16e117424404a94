package ansatz

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/pauli"
	"repro/internal/state"
)

// randomAmplitudes returns a normalized random vector on n qubits.
func randomAmplitudes(n int, rng *core.RNG) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	norm := 0.0
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	for i := range amps {
		amps[i] /= complex(math.Sqrt(norm), 0)
	}
	return amps
}

func maxDiff(a, b []complex128) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, cmplx.Abs(a[i]-b[i]))
	}
	return d
}

// TestPlanExpMatchesCircuit holds the generator-exponential kernel to the
// gate ladder it replaces: for every excitation the pools and encodings
// produce, exp(θ·A) as pair sweeps equals State.Run of the AppendExp
// circuit on a random state, serial and pooled, with a second vector
// carried along and the bracket it returns equal to 2·Re⟨λ|A|φ⟩.
func TestPlanExpMatchesCircuit(t *testing.T) {
	type named struct {
		name string
		n    int
		ops  []Excitation
	}
	var cases []named
	for _, n := range []int{4, 6} {
		cases = append(cases, named{"jw", n, append(Singles(n, 2), Doubles(n, 2)...)})
		for name, mk := range map[string]func(int) (*fermion.Encoding, error){
			"bk": fermion.BravyiKitaevEncoding, "parity": fermion.ParityEncoding,
		} {
			enc, err := mk(n)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, named{name, n, append(SinglesWithEncoding(n, 2, enc), DoublesWithEncoding(n, 2, enc)...)})
		}
		qp, err := NewQubitPool(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, named{"qubit-pool", n, qp.Ops})
	}
	zz := []pauli.Term{{Coeff: 0.7i, P: pauli.MustParse("ZZII")}, {Coeff: -0.2i, P: pauli.MustParse("IZIZ")}}
	cases = append(cases, named{"diagonal", 4, []Excitation{{Label: "i·ZZ", Paulis: zz}}})
	// Three X masks in one generator: the groups commute, so their sweeps compose.
	mixed := []pauli.Term{{Coeff: 0.4i, P: pauli.MustParse("XXII")}, {Coeff: 0.3i, P: pauli.MustParse("ZZII")},
		{Coeff: -0.6i, P: pauli.MustParse("IIXY")}, {Coeff: 0.25i, P: pauli.MustParse("YYXY")}}
	cases = append(cases, named{"mixed-masks", 4, []Excitation{{Label: "i·(XX+ZZ+XY+YYXY)", Paulis: mixed}}})

	pool := state.NewPool(2)
	defer pool.Close()
	rng := core.NewRNG(20231112)
	for _, tc := range cases {
		for _, ex := range tc.ops {
			theta := 2 * rng.NormFloat64()
			start := randomAmplitudes(tc.n, rng)
			lam0 := randomAmplitudes(tc.n, rng)

			ref, err := state.FromAmplitudes(start, state.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			c := circuit.New(tc.n)
			ex.AppendExp(c, theta)
			ref.Run(c)
			refLam, _ := state.FromAmplitudes(lam0, state.Options{Workers: 1})
			refLam.Run(c)
			aPhi := make([]complex128, len(start))
			ex.Generator().MatVec(aPhi, start)
			var dot complex128
			for i := range aPhi {
				dot += cmplx.Conj(lam0[i]) * aPhi[i]
			}
			wantBracket := 2 * real(dot)

			for mode, opts := range map[string]state.Options{
				"serial": {Workers: 1},
				"pooled": {Workers: 2, ParallelThreshold: 1, Pool: pool},
			} {
				s, _ := state.FromAmplitudes(start, opts)
				lam := append([]complex128(nil), lam0...)
				if got := ex.Plan().Bracket(s, lam); math.Abs(got-wantBracket) > 1e-12 {
					t.Errorf("%s n=%d %s %s: Bracket %v, want %v", tc.name, tc.n, ex.Label, mode, got, wantBracket)
				}
				before := s.GatesApplied()
				if got := ex.Plan().Exp(s, lam, theta); math.Abs(got-wantBracket) > 1e-12 {
					t.Errorf("%s n=%d %s %s: Exp returned bracket %v, want %v", tc.name, tc.n, ex.Label, mode, got, wantBracket)
				}
				if d := maxDiff(s.Amplitudes(), ref.Amplitudes()); d > 1e-12 {
					t.Errorf("%s n=%d %s %s: kernel vs circuit differ by %g", tc.name, tc.n, ex.Label, mode, d)
				}
				if d := maxDiff(lam, refLam.Amplitudes()); d > 1e-12 {
					t.Errorf("%s n=%d %s %s: second vector differs by %g", tc.name, tc.n, ex.Label, mode, d)
				}
				if tc.name == "jw" && s.GatesApplied()-before != 1 {
					t.Errorf("%s n=%d %s: %d sweeps for one JW excitation, want 1", tc.name, tc.n, ex.Label, s.GatesApplied()-before)
				}
				ex.Plan().Exp(s, nil, -theta)
				if d := maxDiff(s.Amplitudes(), start); d > 1e-12 {
					t.Errorf("%s n=%d %s %s: exp(θ)·exp(−θ) off identity by %g", tc.name, tc.n, ex.Label, mode, d)
				}
			}
		}
	}
}

func TestNewGeneratorRejects(t *testing.T) {
	for name, terms := range map[string][]pauli.Term{
		"hermitian":     {{Coeff: 0.5, P: pauli.MustParse("XY")}},
		"non-commuting": {{Coeff: 0.5i, P: pauli.MustParse("XI")}, {Coeff: 0.5i, P: pauli.MustParse("ZI")}},
	} {
		if _, err := pauli.NewGenerator(terms); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("%s generator: got %v, want ErrInvalidArgument", name, err)
		}
	}
	h := pauli.NewPlan(pauli.NewOp().Add(pauli.MustParse("ZZ"), 1))
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("Exp on an observable plan: recovered %v, want ErrInvalidArgument", err)
		}
	}()
	h.Exp(state.New(2, state.Options{}), nil, 0.1)
}

// TestExpKeepsSectorZeros: a number-conserving ansatz prepared through the
// kernels never writes outside its particle-number sector — not a 1e-17
// residue, an exact zero — which is what the zero-skips of Plan.MatVec and
// Plan.Evaluate key on. Under every encoding the support stays inside the
// closure of the reference under the generators (pauli.NewSubspace), the
// set the subspace route keeps amplitudes for.
func TestExpKeepsSectorZeros(t *testing.T) {
	const n, ne = 8, 4
	for name, mk := range map[string]func(int) (*fermion.Encoding, error){
		"jw": fermion.JordanWignerEncoding, "bk": fermion.BravyiKitaevEncoding, "parity": fermion.ParityEncoding,
	} {
		enc, err := mk(n)
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUCCSDWithEncoding(n, ne, enc)
		if err != nil {
			t.Fatal(err)
		}
		var ref uint64
		for _, g := range u.Reference().Gates {
			ref |= 1 << uint(g.Qubits[0])
		}
		var plans []*pauli.Plan
		for _, ex := range u.Operators() {
			plans = append(plans, ex.Plan())
		}
		sp := pauli.NewSubspace(ref, 1<<(n-1), plans...)
		if sp == nil || sp.Dim() > 70 {
			t.Fatalf("%s: closure %v, want at most the C(8,4) = 70 states of the sector", name, sp)
		}
		rng := core.NewRNG(5)
		s := state.New(n, state.Options{Workers: 1})
		s.Run(u.Reference())
		for _, ex := range u.Operators() {
			ex.Plan().Exp(s, nil, 0.3*rng.NormFloat64())
		}
		inside := 0
		for i, a := range s.Amplitudes() {
			_, in := sp.Position(uint64(i))
			if name == "jw" && in && bits.OnesCount64(uint64(i)) != ne {
				t.Fatalf("jw: closure holds %#b, outside the %d-electron sector", i, ne)
			}
			switch {
			case !in:
				if a != 0 {
					t.Fatalf("%s: amplitude %#b outside the closure is %v, want exactly 0", name, i, a)
				}
			case a != 0:
				inside++
			}
		}
		if inside < 2 {
			t.Fatalf("%s: only %d nonzero amplitudes: the ansatz did not spread inside the sector", name, inside)
		}
		if math.Abs(s.Norm()-1) > 1e-12 {
			t.Errorf("%s: norm drifted to %v", name, s.Norm())
		}
	}
}

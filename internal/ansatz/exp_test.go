package ansatz

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
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

// fullSpace is all of n qubits' basis as a pauli.Subspace — the closure of
// |0⟩ under a transverse field — in which a position is its basis state, so
// pairs restricted to it act on 2ⁿ-long vectors as they are.
func fullSpace(t *testing.T, n int) *pauli.Subspace {
	t.Helper()
	field := pauli.NewOp()
	for q := 0; q < n; q++ {
		x, err := pauli.Single('X', q)
		if err != nil {
			t.Fatal(err)
		}
		field.Add(x, 1)
	}
	sp := pauli.NewSubspace(0, pauli.NewPlan(field))
	if sp.Dim() != 1<<uint(n) {
		t.Fatalf("transverse-field closure has %d states, want %d", sp.Dim(), 1<<uint(n))
	}
	return sp
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
// produce, exp(θ·A) as pair sweeps over the full space (Pairs.Exp) equals
// State.Run of the AppendExp circuit on a random state, with a second
// vector carried along and the bracket it returns equal to 2·Re⟨λ|A|φ⟩;
// Plan.Bracket on a 2ⁿ state, serial and pooled, returns the same.
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
	// Three X masks in one generator: the groups commute, so their sweeps compose.
	mixed := []pauli.Term{{Coeff: 0.4i, P: pauli.MustParse("XXII")},
		{Coeff: -0.6i, P: pauli.MustParse("IIXY")}, {Coeff: 0.25i, P: pauli.MustParse("YYXY")}}
	cases = append(cases, named{"mixed-masks", 4, []Excitation{{Label: "i·(XX+XY+YYXY)", Paulis: mixed}}})

	pool := state.NewPool(2)
	defer pool.Close()
	full := map[int]*pauli.Subspace{4: fullSpace(t, 4), 6: fullSpace(t, 6)}
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
				if got := ex.Plan().Bracket(s, lam0); math.Abs(got-wantBracket) > 1e-12 {
					t.Errorf("%s n=%d %s %s: Bracket %v, want %v", tc.name, tc.n, ex.Label, mode, got, wantBracket)
				}
			}
			pairs, err := ex.Plan().RestrictPairs(full[tc.n])
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "jw" && pairs.NumGroups() != 1 {
				t.Errorf("%s n=%d %s: %d sweeps for one JW excitation, want 1", tc.name, tc.n, ex.Label, pairs.NumGroups())
			}
			phi, lam := slices.Clone(start), slices.Clone(lam0)
			if got := pairs.Exp(phi, lam, theta); math.Abs(got-wantBracket) > 1e-12 {
				t.Errorf("%s n=%d %s: Exp returned bracket %v, want %v", tc.name, tc.n, ex.Label, got, wantBracket)
			}
			if d := maxDiff(phi, ref.Amplitudes()); d > 1e-12 {
				t.Errorf("%s n=%d %s: kernel vs circuit differ by %g", tc.name, tc.n, ex.Label, d)
			}
			if d := maxDiff(lam, refLam.Amplitudes()); d > 1e-12 {
				t.Errorf("%s n=%d %s: second vector differs by %g", tc.name, tc.n, ex.Label, d)
			}
			pairs.Exp(phi, nil, -theta)
			if d := maxDiff(phi, start); d > 1e-12 {
				t.Errorf("%s n=%d %s: exp(θ)·exp(−θ) off identity by %g", tc.name, tc.n, ex.Label, d)
			}
		}
	}
}

func TestNewGeneratorRejects(t *testing.T) {
	for name, terms := range map[string][]pauli.Term{
		"hermitian":     {{Coeff: 0.5, P: pauli.MustParse("XY")}},
		"non-commuting": {{Coeff: 0.5i, P: pauli.MustParse("XI")}, {Coeff: 0.5i, P: pauli.MustParse("ZI")}},
		"diagonal":      {{Coeff: 0.7i, P: pauli.MustParse("ZZII")}, {Coeff: -0.2i, P: pauli.MustParse("IZIZ")}},
		"diagonal term": {{Coeff: 0.4i, P: pauli.MustParse("XXII")}, {Coeff: 0.3i, P: pauli.MustParse("ZZII")}},
	} {
		if _, err := pauli.NewGenerator(terms); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("%s generator: got %v, want ErrInvalidArgument", name, err)
		}
	}
	h := pauli.NewPlan(pauli.NewOp().Add(pauli.MustParse("ZZ"), 1))
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("Bracket on an observable plan: recovered %v, want ErrInvalidArgument", err)
		}
	}()
	h.Bracket(state.New(2, state.Options{}), make([]complex128, 4))
}

// TestExpKeepsSectorZeros: a number-conserving ansatz prepared through the
// pair sweeps over the full space never writes outside its particle-number
// sector — not a 1e-17 residue, an exact zero — which is what the
// zero-skips of Plan.MatVec and Plan.Evaluate key on. Under every encoding
// the support stays inside the closure of the reference under the
// generators (pauli.NewSubspace), the set the driver keeps amplitudes for.
func TestExpKeepsSectorZeros(t *testing.T) {
	const n, ne = 8, 4
	full := fullSpace(t, n)
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
		sp := pauli.NewSubspace(ref, plans...)
		if sp.Dim() > 70 {
			t.Fatalf("%s: closure of %d states, want at most the C(8,4) = 70 states of the sector", name, sp.Dim())
		}
		rng := core.NewRNG(5)
		s := state.New(n, state.Options{Workers: 1})
		s.Run(u.Reference())
		amps := s.Amplitudes()
		for _, ex := range u.Operators() {
			pairs, err := ex.Plan().RestrictPairs(full)
			if err != nil {
				t.Fatal(err)
			}
			pairs.Exp(amps, nil, 0.3*rng.NormFloat64())
		}
		inside := 0
		for i, a := range amps {
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

// Package trotter builds product-formula circuits approximating
// Hamiltonian time evolution e^{−iHt} for Pauli-sum Hamiltonians — the
// circuit-level substrate beneath QPE's controlled evolutions and a
// workload for the simulator in its own right (dynamics simulations).
// First-order (Lie) and second-order (Strang/symmetric) formulas are
// provided, with exact dense evolution as the error reference.
package trotter

import (
	"fmt"
	"math"

	"repro/internal/ansatz"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/state"
)

// Order selects the product formula.
type Order int

const (
	// First is the Lie–Trotter formula: ∏ e^{−i c_k P_k dt} per step.
	First Order = 1
	// Second is the symmetric Strang splitting: forward half-step then
	// backward half-step, with O(dt³) local error.
	Second Order = 2
)

// Options configures circuit construction.
type Options struct {
	Time  float64
	Steps int
	Order Order
}

// Circuit builds the evolution circuit for e^{−iHt} on n qubits. The
// identity component of H contributes only a global phase and is skipped.
func Circuit(h *pauli.Op, n int, opts Options) (*circuit.Circuit, error) {
	if h.MaxQubit() >= n {
		return nil, core.QubitError(h.MaxQubit(), n)
	}
	if opts.Steps < 1 {
		return nil, fmt.Errorf("%w: %d steps", core.ErrInvalidArgument, opts.Steps)
	}
	if !h.IsHermitian(1e-10) {
		return nil, fmt.Errorf("%w: non-Hermitian Hamiltonian", core.ErrInvalidArgument)
	}
	terms := h.Terms()
	c := circuit.New(n)
	dt := opts.Time / float64(opts.Steps)
	switch opts.Order {
	case First:
		for s := 0; s < opts.Steps; s++ {
			for _, t := range terms {
				appendTermExp(c, real(t.Coeff)*dt, t.P)
			}
		}
	case Second:
		for s := 0; s < opts.Steps; s++ {
			for _, t := range terms {
				appendTermExp(c, real(t.Coeff)*dt/2, t.P)
			}
			for i := len(terms) - 1; i >= 0; i-- {
				appendTermExp(c, real(terms[i].Coeff)*dt/2, terms[i].P)
			}
		}
	default:
		return nil, fmt.Errorf("%w: order %d", core.ErrInvalidArgument, opts.Order)
	}
	return c, nil
}

// appendTermExp appends e^{−i·theta·P} (note: full angle, not half).
func appendTermExp(c *circuit.Circuit, theta float64, p pauli.String) {
	if p.IsIdentity() {
		return
	}
	ansatz.AppendPauliExp(c, 2*theta, p)
}

// ExactEvolve applies e^{−iHt} to the state exactly via the dense matrix
// exponential (reference for error measurements; small n only).
func ExactEvolve(h *pauli.Op, s *state.State, t float64) error {
	n := s.NumQubits()
	if h.MaxQubit() >= n {
		return core.QubitError(h.MaxQubit(), n)
	}
	u := linalg.Expm(h.ToDense(n).Scale(complex(0, -t)))
	out := u.MulVec(s.Amplitudes())
	copy(s.Amplitudes(), out)
	return nil
}

// Error runs the Trotter circuit and the exact evolution from the given
// initial state and returns the l2 distance between the final states.
func Error(h *pauli.Op, n int, initial *circuit.Circuit, opts Options) (float64, error) {
	c, err := Circuit(h, n, opts)
	if err != nil {
		return 0, err
	}
	approx := state.New(n, state.Options{})
	exact := state.New(n, state.Options{})
	if initial != nil {
		approx.Run(initial)
		exact.Run(initial)
	}
	approx.Run(c)
	if err := ExactEvolve(h, exact, opts.Time); err != nil {
		return 0, err
	}
	// Distance up to global phase: minimize over phase analytically —
	// d² = 2(1 − |⟨exact|approx⟩|).
	ov := exact.InnerProduct(approx)
	mag := math.Hypot(real(ov), imag(ov))
	if mag > 1 {
		mag = 1
	}
	return math.Sqrt(2 * (1 - mag)), nil
}

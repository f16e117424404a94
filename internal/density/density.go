// Package density implements a density-matrix simulator with Kraus noise
// channels — the DM-Sim substrate of the NWQ-Sim family (paper ref [7]).
// It provides mixed-state simulation for noise studies at small qubit
// counts (ρ costs 4ⁿ amplitudes), complementing the pure-state engine.
package density

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/state"
)

// Matrix is an n-qubit density matrix ρ (row-major, dimension 2ⁿ).
type Matrix struct {
	n   int
	dim int
	rho []complex128
}

// New returns ρ = |0…0⟩⟨0…0| on n qubits.
func New(n int) *Matrix {
	dim := core.Dim(n)
	m := &Matrix{n: n, dim: dim, rho: make([]complex128, dim*dim)}
	m.rho[0] = 1
	return m
}

// FromState builds the pure-state density matrix |ψ⟩⟨ψ|.
func FromState(s *state.State) *Matrix {
	m := New(s.NumQubits())
	amps := s.Amplitudes()
	for i := 0; i < m.dim; i++ {
		for j := 0; j < m.dim; j++ {
			m.rho[i*m.dim+j] = amps[i] * cmplx.Conj(amps[j])
		}
	}
	return m
}

// NumQubits returns the register width.
func (m *Matrix) NumQubits() int { return m.n }

// At returns ρ[i][j].
func (m *Matrix) At(i, j int) complex128 { return m.rho[i*m.dim+j] }

// Trace returns Tr ρ (1 for a valid state).
func (m *Matrix) Trace() complex128 {
	var t complex128
	for i := 0; i < m.dim; i++ {
		t += m.rho[i*m.dim+i]
	}
	return t
}

// Purity returns Tr ρ² ∈ (0, 1]; 1 iff pure.
func (m *Matrix) Purity() float64 {
	p := 0.0
	for i := 0; i < m.dim; i++ {
		for j := 0; j < m.dim; j++ {
			a := m.rho[i*m.dim+j]
			b := m.rho[j*m.dim+i]
			p += real(a * b) // Tr ρ² = Σ ρ_ij ρ_ji
		}
	}
	return p
}

// leftMul1Q applies ρ ← (U on qubit q) · ρ.
func (m *Matrix) leftMul1Q(u *linalg.Matrix, q int) {
	u00, u01, u10, u11 := u.At(0, 0), u.At(0, 1), u.At(1, 0), u.At(1, 1)
	half := uint64(m.dim / 2)
	for col := 0; col < m.dim; col++ {
		for rest := uint64(0); rest < half; rest++ {
			i0 := int(core.InsertZeroBit(rest, q))
			i1 := i0 | 1<<uint(q)
			a0 := m.rho[i0*m.dim+col]
			a1 := m.rho[i1*m.dim+col]
			m.rho[i0*m.dim+col] = u00*a0 + u01*a1
			m.rho[i1*m.dim+col] = u10*a0 + u11*a1
		}
	}
}

// rightMulAdj1Q applies ρ ← ρ · (U on qubit q)†.
func (m *Matrix) rightMulAdj1Q(u *linalg.Matrix, q int) {
	// (ρU†)[r][c] = Σ_k ρ[r][k]·conj(U[c][k]).
	c00, c01 := cmplx.Conj(u.At(0, 0)), cmplx.Conj(u.At(0, 1))
	c10, c11 := cmplx.Conj(u.At(1, 0)), cmplx.Conj(u.At(1, 1))
	half := uint64(m.dim / 2)
	for row := 0; row < m.dim; row++ {
		base := row * m.dim
		for rest := uint64(0); rest < half; rest++ {
			j0 := int(core.InsertZeroBit(rest, q))
			j1 := j0 | 1<<uint(q)
			a0 := m.rho[base+j0]
			a1 := m.rho[base+j1]
			m.rho[base+j0] = a0*c00 + a1*c01
			m.rho[base+j1] = a0*c10 + a1*c11
		}
	}
}

// conjugate1Q applies ρ ← U ρ U† for a single-qubit unitary.
func (m *Matrix) conjugate1Q(u *linalg.Matrix, q int) {
	m.leftMul1Q(u, q)
	m.rightMulAdj1Q(u, q)
}

// conjugate2Q applies ρ ← U ρ U† for a two-qubit unitary on (a,b), a =
// high local bit. Implemented via the dense embedding for clarity; the
// density backend targets ≤ ~10 qubits where this is cheap.
func (m *Matrix) conjugate2Q(u4 *linalg.Matrix, a, b int) {
	g := gate.Gate{Kind: gate.Fused2Q, Qubits: []int{a, b}, Matrix: u4}
	full := circuit.EmbedGate(g, m.n)
	rho := linalg.MatrixFrom(m.dim, m.dim, m.rho)
	out := full.Mul(rho).Mul(full.Adjoint())
	copy(m.rho, out.Data)
}

// ApplyGate applies one unitary gate (barrier/identity skipped; other
// non-unitary markers rejected).
func (m *Matrix) ApplyGate(g gate.Gate) error {
	switch g.Kind {
	case gate.Barrier, gate.I:
		return nil
	}
	if !g.IsUnitary() {
		return fmt.Errorf("%w: density backend cannot apply %v (use channels)", core.ErrInvalidArgument, g.Kind)
	}
	for _, q := range g.Qubits {
		if q < 0 || q >= m.n {
			return core.QubitError(q, m.n)
		}
	}
	switch g.Arity() {
	case 1:
		m.conjugate1Q(g.Matrix2(), g.Qubits[0])
	case 2:
		m.conjugate2Q(g.Matrix4(), g.Qubits[0], g.Qubits[1])
	default:
		return core.ErrInvalidArgument
	}
	return nil
}

// Run applies all gates of a circuit, inserting the noise model's
// channels after each gate when model is non-nil.
func (m *Matrix) Run(c *circuit.Circuit, model *NoiseModel) error {
	if c.NumQubits > m.n {
		return core.ErrDimensionMismatch
	}
	for _, g := range c.Gates {
		if err := m.ApplyGate(g); err != nil {
			return err
		}
		if model != nil && g.IsUnitary() && g.Kind != gate.I {
			if err := model.afterGate(m, g); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyChannel applies the CPTP map ρ ← Σ K ρ K† for single-qubit Kraus
// operators on qubit q.
func (m *Matrix) ApplyChannel(kraus []*linalg.Matrix, q int) error {
	if q < 0 || q >= m.n {
		return core.QubitError(q, m.n)
	}
	out := make([]complex128, len(m.rho))
	work := &Matrix{n: m.n, dim: m.dim, rho: make([]complex128, len(m.rho))}
	for _, k := range kraus {
		copy(work.rho, m.rho)
		work.leftMul1Q(k, q)
		work.rightMulAdj1Q(k, q)
		for i := range out {
			out[i] += work.rho[i]
		}
	}
	copy(m.rho, out)
	return nil
}

// Expectation returns Tr(ρ·H) for a Pauli-sum observable.
func (m *Matrix) Expectation(op *pauli.Op) float64 {
	total := 0.0
	for _, t := range op.Terms() {
		// Tr(ρP) = Σ_i ⟨i|ρP|i⟩ = Σ_i ρ[i][j]·ph with P|i⟩ = ph|j⟩.
		var acc complex128
		for i := uint64(0); i < uint64(m.dim); i++ {
			j, ph := t.P.ApplyToBasis(i)
			acc += m.rho[int(i)*m.dim+int(j)] * ph
		}
		total += real(t.Coeff * acc)
	}
	return total
}

// Fidelity returns ⟨ψ|ρ|ψ⟩ against a pure state.
func (m *Matrix) Fidelity(s *state.State) float64 {
	amps := s.Amplitudes()
	var acc complex128
	for i := 0; i < m.dim; i++ {
		var row complex128
		for j := 0; j < m.dim; j++ {
			row += m.rho[i*m.dim+j] * amps[j]
		}
		acc += cmplx.Conj(amps[i]) * row
	}
	return real(acc)
}

// Probabilities returns the diagonal of ρ.
func (m *Matrix) Probabilities() []float64 {
	out := make([]float64, m.dim)
	for i := range out {
		out[i] = real(m.rho[i*m.dim+i])
	}
	return out
}

// Noise channel constructors (single qubit).

// DepolarizingKraus returns the depolarizing channel with error
// probability p: ρ → (1−p)ρ + p/3(XρX + YρY + ZρZ).
func DepolarizingKraus(p float64) []*linalg.Matrix {
	if p < 0 || p > 1 {
		panic(core.ErrInvalidArgument)
	}
	k0 := linalg.Identity(2).Scale(complex(math.Sqrt(1-p), 0))
	kx := gate.New(gate.X).Matrix2().Scale(complex(math.Sqrt(p/3), 0))
	ky := gate.New(gate.Y).Matrix2().Scale(complex(math.Sqrt(p/3), 0))
	kz := gate.New(gate.Z).Matrix2().Scale(complex(math.Sqrt(p/3), 0))
	return []*linalg.Matrix{k0, kx, ky, kz}
}

// NoiseModel attaches per-gate noise: after every 1-qubit gate each touched
// qubit passes through OneQubit channels; after every 2-qubit gate,
// TwoQubit channels (applied per touched qubit).
type NoiseModel struct {
	OneQubit [][]*linalg.Matrix
	TwoQubit [][]*linalg.Matrix
}

// DepolarizingModel is the standard uniform model with separate 1q/2q
// error rates.
func DepolarizingModel(p1, p2 float64) *NoiseModel {
	return &NoiseModel{
		OneQubit: [][]*linalg.Matrix{DepolarizingKraus(p1)},
		TwoQubit: [][]*linalg.Matrix{DepolarizingKraus(p2)},
	}
}

func (nm *NoiseModel) afterGate(m *Matrix, g gate.Gate) error {
	channels := nm.OneQubit
	if g.Arity() == 2 {
		channels = nm.TwoQubit
	}
	for _, ch := range channels {
		for _, q := range g.Qubits {
			if err := m.ApplyChannel(ch, q); err != nil {
				return err
			}
		}
	}
	return nil
}

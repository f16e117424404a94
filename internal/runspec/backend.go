package runspec

// The backend table: every simulator a spec may name in
// backend.accelerator, and the adaptor through which the one VQE loop
// (vqe.Driver) asks it for ⟨H⟩. This is the reproduction's side of the
// paper's §3 split: the framework loop is the driver, and NWQ-Sim's
// engines sit behind its one-method vqe.Backend seam. The table is fixed;
// Validate, Canonical, the backend section's construction, the daemon's
// capabilities and nwqsim's listing all read it.

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/vqe"
)

// The instrument names predate the table (they were the accelerator
// layer's) and are kept so /v1/metrics and run reports read as before.
var (
	mExpectation         = telemetry.GetTimer("xacc.expectation")
	mFallbackActivations = telemetry.GetCounter("xacc.fallback.activations")
	mFallbackExhausted   = telemetry.GetCounter("xacc.fallback.exhausted")
)

// backendRow is one simulator a spec may name.
type backendRow struct {
	name, description string
	// qubitLimit bounds the register a run may ask of the backend.
	qubitLimit int
	// distributed backends read backend.ranks and backend.fault; the rest
	// ignore them, and Canonical zeroes them.
	distributed bool
	// build returns what the driver asks for ⟨H⟩: nil for the driver's own
	// state vector, an adaptor otherwise.
	build func(BackendSpec) vqe.Backend
}

// backends is sorted by name, the order the catalog is listed in.
var backends = []backendRow{
	{name: "nwq-cluster", description: "simulated multi-rank cluster with verified communication",
		qubitLimit: 34, distributed: true,
		build: func(b BackendSpec) vqe.Backend { return clusterBackend{b.Ranks, b.ClusterOptions()} }},
	{name: "nwq-dm", description: "density-matrix engine with optional noise",
		qubitLimit: 12,
		build:      func(BackendSpec) vqe.Backend { return dmBackend{} }},
	{name: "nwq-resilient", description: "cluster backend degrading to single-node on persistent faults",
		qubitLimit: 34, distributed: true,
		build: func(b BackendSpec) vqe.Backend {
			return fallback{clusterBackend{b.Ranks, b.ClusterOptions()}, svBackend{b.Workers}}
		}},
	{name: "nwq-sv", description: "single-node state-vector engine (goroutine-parallel)",
		qubitLimit: 30,
		build:      func(BackendSpec) vqe.Backend { return nil }},
	{name: "nwq-sv-serial", description: "single-node state-vector engine, forced serial",
		qubitLimit: 30,
		build:      func(BackendSpec) vqe.Backend { return svBackend{1} }},
}

// lookupBackend returns the named row; the zero row when there is none.
func lookupBackend(name string) (backendRow, bool) {
	for _, r := range backends {
		if r.name == name {
			return r, true
		}
	}
	return backendRow{}, false
}

func unknownBackend(name string) error {
	names := make([]string, len(backends))
	for i, r := range backends {
		names[i] = r.name
	}
	return fmt.Errorf("%w: runspec: unknown backend.accelerator %q (have %v)", core.ErrInvalidArgument, name, names)
}

// BackendInfo is one catalog row, as GET /v1/capabilities serves it.
type BackendInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	QubitLimit  int    `json:"qubit_limit"`
}

// Backends lists every backend a spec may name, sorted by name.
func Backends() []BackendInfo {
	out := make([]BackendInfo, len(backends))
	for i, r := range backends {
		out[i] = BackendInfo{Name: r.name, Description: r.description, QubitLimit: r.qubitLimit}
	}
	return out
}

// Distributed reports whether the named backend reads ranks and fault.
func (b BackendSpec) Distributed() bool {
	r, _ := lookupBackend(b.Accelerator)
	return r.distributed
}

// ClusterOptions translates the fault section into the cluster's
// resilience configuration: the seeded fault injector, and the norm
// watchdog when silent corruption is drilled.
func (b BackendSpec) ClusterOptions() cluster.Options {
	var o cluster.Options
	if b.Fault.enabled() {
		o.Fault = resilience.NewFaultInjector(resilience.FaultConfig{
			Seed:        b.Fault.Seed,
			DropProb:    b.Fault.DropProb,
			CorruptProb: b.Fault.CorruptProb,
			StallProb:   b.Fault.StallProb,
			SilentProb:  b.Fault.SilentProb,
			MaxFaults:   b.Fault.MaxFaults,
		})
		if b.Fault.SilentProb > 0 {
			// Silent corruption sails past the checksums; only the
			// norm-drift watchdog catches it.
			o.NormCheckEvery = 8
		}
	}
	return o
}

// backend resolves the section to what the driver loop asks for ⟨H⟩ on n
// qubits: nil (the driver's own state vector, with every mode, caching and
// adjoint gradients) for nwq-sv, the row's adaptor otherwise.
func (b BackendSpec) backend(n int) (vqe.Backend, error) {
	r, ok := lookupBackend(b.Accelerator)
	if !ok {
		return nil, unknownBackend(b.Accelerator)
	}
	be := r.build(b)
	if be != nil && n > r.qubitLimit {
		return nil, fmt.Errorf("%w: runspec: %d qubits exceed backend %q limit of %d",
			core.ErrInvalidArgument, n, b.Accelerator, r.qubitLimit)
	}
	return be, nil
}

// svBackend prepares each circuit on a fresh state vector with the
// reference interpreter and reads ⟨H⟩ through the batched plan.
type svBackend struct{ workers int }

func (a svBackend) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	defer mExpectation.Since(telemetry.Now())
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if obs.MaxQubit() >= prep.NumQubits {
		return 0, core.QubitError(obs.MaxQubit(), prep.NumQubits)
	}
	s := state.New(prep.NumQubits, state.Options{Workers: a.workers})
	s.Run(prep)
	return pauli.NewPlan(obs).Evaluate(s, pauli.ExpectationOptions{Workers: a.workers}), nil
}

// clusterBackend prepares each circuit on a fresh simulated cluster and
// reads ⟨H⟩ from the gathered state.
type clusterBackend struct {
	ranks int
	opts  cluster.Options
}

func (a clusterBackend) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	defer mExpectation.Since(telemetry.Now())
	s, err := cluster.Simulate(ctx, prep, a.ranks, a.opts)
	if err != nil {
		return 0, err
	}
	// Workers 0 resolves to GOMAXPROCS: the gathered state is read with
	// the batched engine at full node parallelism.
	return pauli.NewPlan(obs).Evaluate(s, pauli.ExpectationOptions{}), nil
}

// dmBackend evolves the density matrix ρ = |ψ⟩⟨ψ| (noiselessly: a spec
// carries no noise model) and reads tr(ρH).
type dmBackend struct{}

func (dmBackend) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	defer mExpectation.Since(telemetry.Now())
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m := density.New(prep.NumQubits)
	if err := m.Run(prep, nil); err != nil {
		return 0, err
	}
	return m.Expectation(obs), nil
}

// fallback asks primary and, when that fails, secondary: nwq-resilient's
// degradation from a cluster whose retries are exhausted to the
// single-node engine. A context error is never degraded: a walltime
// expiry must not buy a second, slower attempt.
type fallback struct{ primary, secondary vqe.Backend }

func (f fallback) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e, err := f.primary.Expectation(ctx, prep, obs)
	if err == nil || ctx.Err() != nil {
		return e, err
	}
	mFallbackActivations.Inc()
	if e, err = f.secondary.Expectation(ctx, prep, obs); err == nil || ctx.Err() != nil {
		return e, err
	}
	mFallbackExhausted.Inc()
	return 0, fmt.Errorf("runspec: both backends of the fallback failed: %w", err)
}

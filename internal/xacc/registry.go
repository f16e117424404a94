package xacc

// The accelerator registry: a first-class type, because the job daemon
// needs construction options at lookup time (a submitted RunSpec carries
// worker/rank/fault settings) and an enumerable catalog for its
// capabilities endpoint. DefaultRegistry holds the built-in backends.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/density"
)

// AcceleratorOptions parameterize backend construction at lookup time.
// Every field is optional; a backend reads only what applies to it and
// falls back to its documented default otherwise.
type AcceleratorOptions struct {
	// Workers for parallel simulation (0 = GOMAXPROCS; serial backends
	// ignore it).
	Workers int
	// Ranks for the simulated multi-node backends (0 = backend default).
	Ranks int
	// Transpile applies gate fusion before execution (state-vector).
	Transpile bool
	// Seed for sampling.
	Seed uint64
	// Resilience carries fault injection / verified communication into
	// cluster backends.
	Resilience cluster.Options
	// Noise attaches a noise model to the density-matrix backend.
	Noise *density.NoiseModel
}

// Entry describes one registered backend: a construction function plus
// the metadata the capabilities endpoint serves.
type Entry struct {
	// Description is the one-line human summary in List output.
	Description string
	// Factory builds an accelerator honoring the given options.
	Factory func(AcceleratorOptions) Accelerator
}

// Info is the catalog row List returns — what `GET /v1/capabilities`
// serves per backend.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// QubitLimit is the default-configuration register bound.
	QubitLimit int `json:"qubit_limit"`
}

// Registry is a concurrency-safe accelerator catalog, mirroring XACC's
// service registry. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]Entry{}}
}

// Register installs (or replaces) a named backend entry. An entry without
// a factory is rejected.
func (r *Registry) Register(name string, e Entry) error {
	if name == "" || e.Factory == nil {
		return fmt.Errorf("%w: xacc: registry entry needs a name and a factory", core.ErrInvalidArgument)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = e
	return nil
}

// New instantiates a registered backend with the given options.
func (r *Registry) New(name string, o AcceleratorOptions) (Accelerator, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: no accelerator %q (have %v)", core.ErrInvalidArgument, name, r.Names())
	}
	return e.Factory(o), nil
}

// Names lists registered backend names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List returns the catalog sorted by name. Each backend is instantiated
// once with default options to read its qubit limit.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, Info{
			Name:        name,
			Description: e.Description,
			QubitLimit:  e.Factory(AcceleratorOptions{}).NumQubitsLimit(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DefaultRegistry holds the built-in backends; package init registers
// them exactly as simulators register with the real XACC.
var DefaultRegistry = NewRegistry()

func init() {
	must := func(err error) {
		if err != nil {
			panic(fmt.Errorf("xacc: registering built-in backends: %w", err))
		}
	}
	must(DefaultRegistry.Register("nwq-sv", Entry{
		Description: "single-node state-vector engine (goroutine-parallel)",
		Factory: func(o AcceleratorOptions) Accelerator {
			return &SVAccelerator{Workers: o.Workers, Transpile: o.Transpile, Seed: o.Seed}
		},
	}))
	must(DefaultRegistry.Register("nwq-sv-serial", Entry{
		Description: "single-node state-vector engine, forced serial",
		Factory: func(o AcceleratorOptions) Accelerator {
			return &SVAccelerator{Workers: 1, Transpile: o.Transpile, Seed: o.Seed}
		},
	}))
	must(DefaultRegistry.Register("nwq-cluster", Entry{
		Description: "simulated multi-rank cluster with verified communication",
		Factory: func(o AcceleratorOptions) Accelerator {
			ranks := o.Ranks
			if ranks == 0 {
				ranks = 4
			}
			return &ClusterAccelerator{Ranks: ranks, Resilience: o.Resilience}
		},
	}))
	must(DefaultRegistry.Register("nwq-dm", Entry{
		Description: "density-matrix engine with optional noise",
		Factory: func(o AcceleratorOptions) Accelerator {
			return &DMAccelerator{Noise: o.Noise}
		},
	}))
	// nwq-resilient degrades from the multi-rank cluster to the
	// single-node engine when cluster communication fails for good.
	must(DefaultRegistry.Register("nwq-resilient", Entry{
		Description: "cluster backend degrading to single-node on persistent faults",
		Factory: func(o AcceleratorOptions) Accelerator {
			ranks := o.Ranks
			if ranks == 0 {
				ranks = 4
			}
			return &FallbackAccelerator{Chain: []Accelerator{
				&ClusterAccelerator{Ranks: ranks, Resilience: o.Resilience},
				&SVAccelerator{Workers: o.Workers, Seed: o.Seed},
			}}
		},
	}))
}

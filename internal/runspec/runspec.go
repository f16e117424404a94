// Package runspec defines the canonical, serializable description of one
// VQE workload: molecule, encoding, ansatz, energy-evaluation mode,
// optimizer, backend, and resilience policy collapsed into a single
// RunSpec value. The spec is the unit of work everywhere — the CLIs parse
// flags into one (cmd/internal/specflags), the vqed daemon accepts one per
// job over HTTP, and the public facade's legacy config structs are thin
// adapters over it.
//
// A RunSpec has a canonical form (Canonical) and a content hash (Hash)
// over that form. Two specs with equal hashes describe numerically
// identical runs — the engine is deterministic by construction — which is
// what lets the daemon serve a duplicate submission from cache instead of
// re-simulating. Resilience settings (checkpoint cadence, walltime) are
// excluded from the hash: they decide whether a run completes, never what
// a completed run computes.
package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Enum values accepted by Validate. Everything is lowercase in canonical
// form; Validate is case-insensitive on input.
const (
	AlgorithmVQE   = "vqe"
	AlgorithmAdapt = "adapt"
	AlgorithmQPE   = "qpe"
)

// MoleculeSpec names a built-in molecular model and its parameters. Only
// the fields relevant to Kind survive canonicalization, so a hubbard spec
// carrying a stale synthetic seed hashes the same as a clean one.
type MoleculeSpec struct {
	// Kind: h2 | h2-distance | water | hubbard | synthetic.
	Kind string `json:"kind"`
	// Distance is the H2 bond length in Å (h2-distance only).
	Distance float64 `json:"distance,omitempty"`
	// Sites / Hopping / Repulsion parameterize the Hubbard chain.
	Sites     int     `json:"sites,omitempty"`
	Hopping   float64 `json:"t,omitempty"`
	Repulsion float64 `json:"u,omitempty"`
	// Orbitals / Electrons / Seed parameterize the synthetic generator
	// (Electrons is shared with hubbard).
	Orbitals  int    `json:"orbitals,omitempty"`
	Electrons int    `json:"electrons,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
}

// AnsatzSpec selects the parameterized circuit family.
type AnsatzSpec struct {
	// Kind: uccsd (default) | hea.
	Kind string `json:"kind,omitempty"`
	// Layers is the HEA entangling-layer count (default 2).
	Layers int `json:"layers,omitempty"`
}

// OptimizerSpec selects the classical routine.
type OptimizerSpec struct {
	// Method: lbfgs (default) | nelder-mead.
	Method string `json:"method,omitempty"`
	// MaxIter bounds the optimizer (0 = routine default).
	MaxIter int `json:"max_iter,omitempty"`
}

// AdaptSpec tunes the Adapt-VQE outer loop (Algorithm == "adapt").
type AdaptSpec struct {
	MaxIterations int     `json:"max_iterations,omitempty"` // default 25
	GradientTol   float64 `json:"gradient_tol,omitempty"`   // default 1e-4
}

// QPESpec tunes phase estimation (Algorithm == "qpe").
type QPESpec struct {
	Ancillas     int `json:"ancillas,omitempty"`      // default 7
	TrotterSteps int `json:"trotter_steps,omitempty"` // default 4
}

// FaultSpec is the serializable form of resilience.FaultConfig: a seeded
// injector behind every cluster transfer, for fault drills through the
// daemon.
type FaultSpec struct {
	Seed        uint64  `json:"seed,omitempty"`
	DropProb    float64 `json:"drop_prob,omitempty"`
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	StallProb   float64 `json:"stall_prob,omitempty"`
	SilentProb  float64 `json:"silent_prob,omitempty"`
	MaxFaults   int     `json:"max_faults,omitempty"`
}

// enabled reports whether any injection probability is set.
func (f *FaultSpec) enabled() bool {
	return f != nil && (f.DropProb > 0 || f.CorruptProb > 0 || f.StallProb > 0 || f.SilentProb > 0)
}

// BackendSpec picks the simulation backend from the backend table
// (backend.go) and its construction options.
type BackendSpec struct {
	// Accelerator names a backend-table row (default nwq-sv).
	Accelerator string `json:"accelerator,omitempty"`
	// Ranks for the cluster backend (default 4).
	Ranks int `json:"ranks,omitempty"`
	// Workers per simulation (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Fault enables the seeded fault injector (cluster backends).
	Fault *FaultSpec `json:"fault,omitempty"`
}

// ResilienceSpec carries the checkpoint/walltime knobs. Excluded from the
// canonical hash: it governs run lifecycle, not the computed result.
type ResilienceSpec struct {
	// CheckpointPath is the snapshot file ("" disables; the daemon
	// overrides this with a per-job spool path).
	CheckpointPath string `json:"checkpoint_path,omitempty"`
	// CheckpointEvery is the iteration cadence (≤1 = every iteration). 0
	// means every iteration in process; served by vqed, 0 means a snapshot
	// at most once a second of wall time (and none for a point that ends
	// sooner), while 1 still snapshots every iteration.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Resume loads CheckpointPath before starting.
	Resume bool `json:"resume,omitempty"`
	// Walltime is a SLURM-style budget ("30", "HH:MM:SS", "D-HH:MM") or a
	// Go duration ("90s"); empty means unbounded.
	Walltime string `json:"walltime,omitempty"`
}

// RunSpec is the one canonical description of a VQE job.
type RunSpec struct {
	Molecule MoleculeSpec `json:"molecule"`
	// Encoding: jw (default) | bk | parity.
	Encoding string `json:"encoding,omitempty"`
	// Downfold compresses the molecule onto this many active orbitals
	// before solving (0 = off).
	Downfold int `json:"downfold,omitempty"`
	// Algorithm: vqe (default) | adapt | qpe.
	Algorithm string     `json:"algorithm,omitempty"`
	Ansatz    AnsatzSpec `json:"ansatz,omitempty"`
	// Mode: direct (default) | rotated | sampled.
	Mode string `json:"mode,omitempty"`
	// Shots per measurement group in sampled mode (default 8192).
	Shots int `json:"shots,omitempty"`
	// DisableCaching turns off post-ansatz caching: every measurement group
	// re-prepares the ansatz (rotated and sampled modes; irrelevant in
	// direct mode).
	DisableCaching bool `json:"disable_caching,omitempty"`
	// Fusion runs circuit (hardware-efficient) ansätze through the fused
	// executor; a no-op for uccsd and adapt, which have no gates to fuse.
	Fusion     bool           `json:"fusion,omitempty"`
	Optimizer  OptimizerSpec  `json:"optimizer,omitempty"`
	Adapt      AdaptSpec      `json:"adapt,omitempty"`
	QPE        QPESpec        `json:"qpe,omitempty"`
	Backend    BackendSpec    `json:"backend,omitempty"`
	Resilience ResilienceSpec `json:"resilience,omitempty"`
}

// ApplyDefaults fills zero fields in place with the documented defaults,
// lowercasing the enum strings. Validate calls it implicitly via
// Canonical; callers mutating a spec by hand can invoke it directly.
func (s *RunSpec) ApplyDefaults() {
	s.Molecule.Kind = strings.ToLower(strings.TrimSpace(s.Molecule.Kind))
	if s.Molecule.Kind == "" {
		s.Molecule.Kind = "h2"
	}
	switch s.Molecule.Kind {
	case "hubbard":
		if s.Molecule.Sites == 0 {
			s.Molecule.Sites = 2
		}
		if s.Molecule.Hopping == 0 {
			s.Molecule.Hopping = 1.0
		}
		if s.Molecule.Repulsion == 0 {
			s.Molecule.Repulsion = 4.0
		}
		if s.Molecule.Electrons == 0 {
			s.Molecule.Electrons = s.Molecule.Sites
		}
	case "synthetic":
		if s.Molecule.Orbitals == 0 {
			s.Molecule.Orbitals = 3
		}
		if s.Molecule.Electrons == 0 {
			s.Molecule.Electrons = 2
		}
		if s.Molecule.Seed == 0 {
			s.Molecule.Seed = 1
		}
	}
	s.Encoding = lowerDefault(s.Encoding, "jw")
	s.Algorithm = lowerDefault(s.Algorithm, AlgorithmVQE)
	s.Mode = lowerDefault(s.Mode, "direct")
	if s.Mode == "sampled" && s.Shots == 0 {
		s.Shots = 8192
	}
	s.Ansatz.Kind = lowerDefault(s.Ansatz.Kind, "uccsd")
	if s.Ansatz.Kind == "hea" && s.Ansatz.Layers == 0 {
		s.Ansatz.Layers = 2
	}
	s.Optimizer.Method = lowerDefault(s.Optimizer.Method, "lbfgs")
	if s.Algorithm == AlgorithmAdapt {
		if s.Adapt.MaxIterations == 0 {
			s.Adapt.MaxIterations = 25
		}
		if s.Adapt.GradientTol == 0 {
			s.Adapt.GradientTol = 1e-4
		}
	}
	if s.Algorithm == AlgorithmQPE {
		if s.QPE.Ancillas == 0 {
			s.QPE.Ancillas = 7
		}
		if s.QPE.TrotterSteps == 0 {
			s.QPE.TrotterSteps = 4
		}
	}
	s.Backend.Accelerator = lowerDefault(s.Backend.Accelerator, "nwq-sv")
	if s.Backend.Distributed() && s.Backend.Ranks == 0 {
		s.Backend.Ranks = 4
	}
}

func lowerDefault(v, def string) string {
	v = strings.ToLower(strings.TrimSpace(v))
	if v == "" {
		return def
	}
	return v
}

// Validate checks the spec after defaulting, wrapping every failure in
// core.ErrInvalidArgument so callers can errors.Is against the engine's
// sentinel. It consults the backend table: a spec the daemon has
// acknowledged must not be one that can only fail, or run on a backend
// other than the one its hash names.
func (s *RunSpec) Validate() error {
	c := *s
	c.ApplyDefaults()
	switch c.Molecule.Kind {
	case "h2", "water", "hubbard", "synthetic":
	case "h2-distance":
		if c.Molecule.Distance <= 0 {
			return fmt.Errorf("%w: runspec: h2-distance needs molecule.distance > 0 (got %g)", core.ErrInvalidArgument, c.Molecule.Distance)
		}
	default:
		return fmt.Errorf("%w: runspec: unknown molecule kind %q", core.ErrInvalidArgument, c.Molecule.Kind)
	}
	if c.Molecule.Sites < 0 || c.Molecule.Orbitals < 0 || c.Molecule.Electrons < 0 {
		return fmt.Errorf("%w: runspec: negative molecule size", core.ErrInvalidArgument)
	}
	switch c.Encoding {
	case "jw", "bk", "parity":
	default:
		return fmt.Errorf("%w: runspec: unknown encoding %q", core.ErrInvalidArgument, c.Encoding)
	}
	if c.Downfold < 0 {
		return fmt.Errorf("%w: runspec: negative downfold", core.ErrInvalidArgument)
	}
	switch c.Algorithm {
	case AlgorithmVQE, AlgorithmAdapt, AlgorithmQPE:
	default:
		return fmt.Errorf("%w: runspec: unknown algorithm %q", core.ErrInvalidArgument, c.Algorithm)
	}
	if c.Algorithm != AlgorithmVQE && c.Encoding != "jw" {
		// Adapt's pool and Hartree–Fock reference, and QPE's Hartree–Fock
		// preparation, are built under Jordan–Wigner: against an H in
		// another encoding they leave the electron sector.
		return fmt.Errorf("%w: runspec: algorithm %q runs under encoding jw only (got %q)", core.ErrInvalidArgument, c.Algorithm, c.Encoding)
	}
	switch c.Mode {
	case "direct", "rotated", "sampled":
	default:
		return fmt.Errorf("%w: runspec: unknown mode %q", core.ErrInvalidArgument, c.Mode)
	}
	if c.Shots < 0 {
		return fmt.Errorf("%w: runspec: negative shots", core.ErrInvalidArgument)
	}
	switch c.Ansatz.Kind {
	case "uccsd", "hea":
	default:
		return fmt.Errorf("%w: runspec: unknown ansatz %q", core.ErrInvalidArgument, c.Ansatz.Kind)
	}
	if c.Ansatz.Kind == "hea" && c.Ansatz.Layers < 1 {
		return fmt.Errorf("%w: runspec: hea needs ansatz.layers ≥ 1", core.ErrInvalidArgument)
	}
	switch c.Optimizer.Method {
	case "lbfgs", "nelder-mead":
	default:
		return fmt.Errorf("%w: runspec: unknown optimizer %q", core.ErrInvalidArgument, c.Optimizer.Method)
	}
	if c.Algorithm == AlgorithmVQE && c.Ansatz.Kind == "hea" && c.Optimizer.Method == "lbfgs" {
		// Adjoint gradients need the exponential ansatz structure; the
		// hardware-efficient family only supports derivative-free search.
		return fmt.Errorf("%w: runspec: ansatz hea requires optimizer.method nelder-mead", core.ErrInvalidArgument)
	}
	if acc := c.Backend.Accelerator; acc != "nwq-sv" {
		if _, ok := lookupBackend(acc); !ok {
			return unknownBackend(acc)
		}
		// Anything but direct-mode VQE needs the in-process amplitudes.
		switch {
		case c.Algorithm != AlgorithmVQE:
			return fmt.Errorf("%w: runspec: algorithm %q runs on backend nwq-sv only (got %q)", core.ErrInvalidArgument, c.Algorithm, acc)
		case c.Mode != "direct":
			return fmt.Errorf("%w: runspec: backend %q only supports mode direct (got %q)", core.ErrInvalidArgument, acc, c.Mode)
		}
	}
	//vqelint:ignore workerssemantics validation bounds check, not a sentinel read — 0 and 1 both pass through untouched
	if c.Backend.Ranks < 0 || c.Backend.Workers < 0 {
		return fmt.Errorf("%w: runspec: negative backend sizing", core.ErrInvalidArgument)
	}
	if c.Resilience.Resume && c.Resilience.CheckpointPath == "" {
		return fmt.Errorf("%w: runspec: resilience.resume needs resilience.checkpoint_path", core.ErrInvalidArgument)
	}
	return nil
}

// Canonical returns the normalized copy used for hashing and equality:
// defaults applied, enums lowercased, fields irrelevant to the selected
// kind/algorithm/mode zeroed, and the resilience section cleared (it never
// changes what a completed run computes).
func (s RunSpec) Canonical() RunSpec {
	c := s
	c.ApplyDefaults()
	switch c.Molecule.Kind {
	case "h2", "water":
		c.Molecule = MoleculeSpec{Kind: c.Molecule.Kind}
	case "h2-distance":
		c.Molecule = MoleculeSpec{Kind: "h2-distance", Distance: c.Molecule.Distance}
	case "hubbard":
		c.Molecule = MoleculeSpec{Kind: "hubbard", Sites: c.Molecule.Sites,
			Hopping: c.Molecule.Hopping, Repulsion: c.Molecule.Repulsion,
			Electrons: c.Molecule.Electrons}
	case "synthetic":
		c.Molecule = MoleculeSpec{Kind: "synthetic", Orbitals: c.Molecule.Orbitals,
			Electrons: c.Molecule.Electrons, Seed: c.Molecule.Seed}
	}
	if c.Algorithm != AlgorithmAdapt {
		c.Adapt = AdaptSpec{}
	}
	if c.Algorithm != AlgorithmQPE {
		c.QPE = QPESpec{}
	}
	if c.Algorithm == AlgorithmQPE {
		// QPE has no variational loop: evaluation/optimizer knobs are inert.
		c.Mode, c.Shots, c.DisableCaching = "direct", 0, false
		c.Optimizer = OptimizerSpec{}
		c.Ansatz = AnsatzSpec{Kind: "uccsd"}
	}
	if c.Algorithm == AlgorithmAdapt {
		// Adapt grows its own ansatz; the fixed-ansatz choice is inert.
		c.Ansatz = AnsatzSpec{Kind: "uccsd"}
	}
	if c.Mode == "direct" {
		c.Shots = 0
		c.DisableCaching = false
	}
	if c.Mode != "sampled" {
		c.Shots = 0
	}
	if !c.Backend.Distributed() {
		c.Backend.Ranks = 0
		c.Backend.Fault = nil
	}
	if c.Backend.Fault != nil && !c.Backend.Fault.enabled() {
		c.Backend.Fault = nil
	}
	c.Resilience = ResilienceSpec{}
	return c
}

// HashPrefix versions the canonical form; bump it whenever Canonical or
// the spec schema changes meaning, so stale cache keys can never alias a
// new semantics.
const HashPrefix = "rs1"

// Hash returns the content hash of the canonical spec: HashPrefix plus
// the hex SHA-256 of its canonical JSON. encoding/json emits struct
// fields in declaration order, so the byte stream — and therefore the
// hash — is deterministic.
func (s RunSpec) Hash() string {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		// A RunSpec is plain data; Marshal can only fail on a corrupted
		// runtime. Treat it as such.
		panic(fmt.Errorf("%w: runspec: marshal canonical spec: %v", core.ErrInvalidArgument, err))
	}
	sum := sha256.Sum256(b)
	return HashPrefix + ":" + hex.EncodeToString(sum[:])
}

// Parse decodes a JSON spec strictly (unknown fields are errors, catching
// typos like "optimiser") and validates it.
func Parse(data []byte) (*RunSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	spec := new(RunSpec)
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("%w: runspec: %v", core.ErrInvalidArgument, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: runspec: trailing data after spec", core.ErrInvalidArgument)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

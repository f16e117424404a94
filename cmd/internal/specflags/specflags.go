// Package specflags is the one place the CLI flag vocabulary is defined:
// grouped flag families that parse straight into a runspec.RunSpec. Both
// cmd/vqe and cmd/nwqsim register the families they need (they used to
// duplicate the definitions, defaults, and help strings), and anything
// they can express, the vqed daemon accepts as the same spec over HTTP.
package specflags

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/runspec"
)

// Groups selects which flag families Add registers.
type Groups uint

const (
	// Molecule: -molecule -sites -t -u -orbitals -electrons -seed
	// -distance -downfold -encoding.
	Molecule Groups = 1 << iota
	// Execution: -mode -shots -caching -fusion -optimizer -adapt -qpe
	// -ancillas.
	Execution
	// Backend: -backend -ranks -workers -fault-*.
	Backend
	// Resilience: -checkpoint -checkpoint-every -resume -walltime.
	Resilience
	// All registers every family (cmd/vqe).
	All = Molecule | Execution | Backend | Resilience
)

// Set holds the parsed flag destinations; call Spec after flag.Parse.
type Set struct {
	groups Groups

	molecule  *string
	sites     *int
	hopping   *float64
	repulsion *float64
	orbitals  *int
	electrons *int
	seed      *uint64
	distance  *float64
	downfold  *int
	encoding  *string

	mode      *string
	shots     *int
	caching   *bool
	fusion    *bool
	optimizer *string
	adapt     *bool
	runQPE    *bool
	ancillas  *int

	backend      *string
	ranks        *int
	workers      *int
	faultSeed    *uint64
	faultDrop    *float64
	faultCorrupt *float64
	faultStall   *float64
	faultSilent  *float64
	faultMax     *int

	ckptPath  *string
	ckptEvery *int
	resume    *bool
	walltime  *string
}

// Add registers the selected flag families on fs and returns the
// destination set.
func Add(fs *flag.FlagSet, g Groups) *Set {
	s := &Set{groups: g}
	if g&Molecule != 0 {
		s.molecule = fs.String("molecule", "h2", "h2 | water | hubbard | synthetic")
		s.sites = fs.Int("sites", 2, "hubbard: chain length")
		s.hopping = fs.Float64("t", 1.0, "hubbard: hopping amplitude")
		s.repulsion = fs.Float64("u", 4.0, "hubbard: on-site repulsion")
		s.orbitals = fs.Int("orbitals", 3, "synthetic: spatial orbitals")
		s.electrons = fs.Int("electrons", 2, "hubbard/synthetic: electron count")
		s.seed = fs.Uint64("seed", 1, "synthetic: generator seed")
		s.distance = fs.Float64("distance", 0, "h2: bond length in Å (0 = equilibrium STO-3G model)")
		s.downfold = fs.Int("downfold", 0, "downfold to this many active orbitals before solving (0 = off)")
		s.encoding = fs.String("encoding", "jw", "fermion-to-qubit mapping: jw | bk | parity")
	}
	if g&Execution != 0 {
		s.mode = fs.String("mode", "direct", "energy evaluation: direct | rotated | sampled")
		s.shots = fs.Int("shots", 8192, "shots per group in sampled mode")
		s.caching = fs.Bool("caching", true, "post-ansatz state caching (rotated/sampled modes)")
		s.fusion = fs.Bool("fusion", false, "run circuit (hea) ansätze through the fused executor; a no-op for uccsd and adapt")
		s.optimizer = fs.String("optimizer", "lbfgs", "lbfgs | nelder-mead")
		s.adapt = fs.Bool("adapt", false, "run Adapt-VQE instead of fixed UCCSD")
		s.runQPE = fs.Bool("qpe", false, "run quantum phase estimation instead of VQE")
		s.ancillas = fs.Int("ancillas", 7, "qpe: ancilla qubits")
	}
	if g&Backend != 0 {
		s.backend = fs.String("backend", "nwq-sv", "backend name (nwqsim -backends or vqed /v1/capabilities lists them)")
		s.ranks = fs.Int("ranks", 4, "cluster backend: rank count (power of two)")
		s.workers = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		s.faultSeed = fs.Uint64("fault-seed", 42, "cluster: fault injector seed")
		s.faultDrop = fs.Float64("fault-drop", 0, "cluster: per-transfer drop probability")
		s.faultCorrupt = fs.Float64("fault-corrupt", 0, "cluster: per-transfer corruption probability (checksum-caught)")
		s.faultStall = fs.Float64("fault-stall", 0, "cluster: per-transfer transient-stall probability")
		s.faultSilent = fs.Float64("fault-silent", 0, "cluster: post-checksum silent-corruption probability (watchdog-caught)")
		s.faultMax = fs.Int("fault-max", 0, "cluster: cap on injected faults (0 = unlimited)")
	}
	if g&Resilience != 0 {
		s.ckptPath = fs.String("checkpoint", "", "write atomic CRC-verified optimizer snapshots to this file")
		s.ckptEvery = fs.Int("checkpoint-every", 10, "iterations between checkpoint writes")
		s.resume = fs.Bool("resume", false, "load -checkpoint before starting and continue from it")
		s.walltime = fs.String("walltime", "", "walltime budget (SLURM forms \"30\", \"HH:MM:SS\", \"D-HH:MM\" or Go \"90s\"); halts gracefully with best-so-far")
	}
	return s
}

// Spec assembles and validates the RunSpec the parsed flags describe.
// Call it after the owning FlagSet has been parsed.
func (s *Set) Spec() (*runspec.RunSpec, error) {
	spec := &runspec.RunSpec{}
	if s.groups&Molecule != 0 {
		spec.Molecule = runspec.MoleculeSpec{
			Kind:      *s.molecule,
			Sites:     *s.sites,
			Hopping:   *s.hopping,
			Repulsion: *s.repulsion,
			Orbitals:  *s.orbitals,
			Electrons: *s.electrons,
			Seed:      *s.seed,
		}
		if *s.distance > 0 {
			if *s.molecule != "h2" {
				return nil, fmt.Errorf("%w: -distance applies to -molecule h2 (got %q)", core.ErrInvalidArgument, *s.molecule)
			}
			spec.Molecule.Kind = "h2-distance"
			spec.Molecule.Distance = *s.distance
		}
		spec.Downfold = *s.downfold
		spec.Encoding = *s.encoding
	}
	if s.groups&Execution != 0 {
		spec.Mode = *s.mode
		spec.Shots = *s.shots
		spec.DisableCaching = !*s.caching
		spec.Fusion = *s.fusion
		spec.Optimizer.Method = *s.optimizer
		switch {
		case *s.adapt && *s.runQPE:
			return nil, fmt.Errorf("%w: -adapt and -qpe are mutually exclusive", core.ErrInvalidArgument)
		case *s.adapt:
			spec.Algorithm = runspec.AlgorithmAdapt
		case *s.runQPE:
			spec.Algorithm = runspec.AlgorithmQPE
			spec.QPE.Ancillas = *s.ancillas
		}
	}
	if s.groups&Backend != 0 {
		spec.Backend.Accelerator = *s.backend
		spec.Backend.Ranks = *s.ranks
		spec.Backend.Workers = *s.workers
		if *s.faultDrop > 0 || *s.faultCorrupt > 0 || *s.faultStall > 0 || *s.faultSilent > 0 {
			if !spec.Backend.Distributed() {
				return nil, fmt.Errorf("%w: -fault-* flags need a multi-rank -backend such as nwq-cluster (got %q)", core.ErrInvalidArgument, *s.backend)
			}
			spec.Backend.Fault = &runspec.FaultSpec{
				Seed:        *s.faultSeed,
				DropProb:    *s.faultDrop,
				CorruptProb: *s.faultCorrupt,
				StallProb:   *s.faultStall,
				SilentProb:  *s.faultSilent,
				MaxFaults:   *s.faultMax,
			}
		}
	}
	if s.groups&Resilience != 0 {
		spec.Resilience = runspec.ResilienceSpec{
			CheckpointPath:  *s.ckptPath,
			CheckpointEvery: *s.ckptEvery,
			Resume:          *s.resume,
			Walltime:        *s.walltime,
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Workers returns the parsed -workers value (Backend group), for command
// paths that run outside the spec engine.
func (s *Set) Workers() int {
	if s.workers == nil {
		return 0
	}
	return *s.workers
}

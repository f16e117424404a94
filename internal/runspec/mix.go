package runspec

// Spec-mix sampling: the workload side of a RunSpec. A Mix is a weighted
// set of validated spec templates that a load generator (internal/load)
// draws from. Mixes live here rather than in the load harness because
// they are pure spec data, and keeping them beside the spec schema means
// a schema change breaks the presets at compile time, not at replay time.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
)

// MixEntry is one weighted spec class in a workload mix. Name labels the
// class in reports; Weight is relative (NewMix normalizes).
type MixEntry struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Spec   RunSpec `json:"spec"`
}

// Mix is a normalized, sampleable distribution over spec classes.
type Mix struct {
	name    string
	entries []MixEntry
	cum     []float64 // normalized cumulative weights, len == len(entries)
}

// NewMix validates every entry spec and normalizes the weights.
func NewMix(name string, entries []MixEntry) (*Mix, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("%w: runspec: mix %q has no entries", core.ErrInvalidArgument, name)
	}
	total := 0.0
	for i := range entries {
		e := &entries[i]
		if e.Weight <= 0 {
			return nil, fmt.Errorf("%w: runspec: mix %q entry %q has non-positive weight %g",
				core.ErrInvalidArgument, name, e.Name, e.Weight)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("%w: runspec: mix %q entry %d is unnamed", core.ErrInvalidArgument, name, i)
		}
		if err := e.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("mix %q entry %q: %w", name, e.Name, err)
		}
		total += e.Weight
	}
	m := &Mix{name: name, entries: entries, cum: make([]float64, len(entries))}
	acc := 0.0
	for i := range entries {
		entries[i].Weight /= total
		acc += entries[i].Weight
		m.cum[i] = acc
	}
	m.cum[len(m.cum)-1] = 1.0 // guard against float drift at the top
	return m, nil
}

// Name returns the mix label.
func (m *Mix) Name() string { return m.name }

// Entries returns the normalized entries — the chaos drill enumerates
// these to recompute every spec a run can draw.
func (m *Mix) Entries() []MixEntry { return m.entries }

// Sample draws one entry according to the weights using the caller's
// deterministic source, so a seeded load run replays the same spec
// sequence.
func (m *Mix) Sample(r *rand.Rand) MixEntry {
	u := r.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.entries) {
		i = len(m.entries) - 1
	}
	return m.entries[i]
}

// Preset mix names accepted by MixByName.
const (
	MixSmoke   = "smoke"
	MixServing = "serving"
	MixSweep   = "sweep"
)

// MixByName resolves a preset workload mix:
//
//	smoke    tiny specs only — CI-safe, every class < ~100 ms
//	serving  heavy-tailed serving traffic: mostly small molecules with a
//	         minority of ~25x-heavier jobs (the shape ServeGen-style
//	         generators model for inference serving)
//	sweep    a dense H2 dissociation grid — high cache-miss first pass,
//	         high hit rate on replay, mimicking PES-sweep traffic
func MixByName(name string) (*Mix, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case MixSmoke:
		return smokeMix()
	case MixServing:
		return servingMix()
	case MixSweep:
		return sweepMix()
	}
	return nil, fmt.Errorf("%w: runspec: unknown mix %q (want smoke|serving|sweep)", core.ErrInvalidArgument, name)
}

func smokeMix() (*Mix, error) {
	entries := []MixEntry{
		{Name: "h2", Weight: 5, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "h2"}}},
		{Name: "hubbard-2", Weight: 3, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "hubbard", Sites: 2}}},
		{Name: "synthetic-3", Weight: 2, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "synthetic", Orbitals: 3}}},
	}
	entries = append(entries, h2DistanceEntries(8, 1)...)
	return NewMix(MixSmoke, entries)
}

// servingMix is the default traffic model: a heavy-tailed runtime
// distribution spanning roughly 4 ms (H2 direct) to ~100 ms (8-qubit
// synthetic, 6-qubit Hubbard, Adapt-VQE) per job, with repeatable classes
// so the daemon's content-addressed cache sees realistic duplicate rates.
func servingMix() (*Mix, error) {
	entries := []MixEntry{
		{Name: "h2", Weight: 30, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "h2"}}},
		{Name: "hubbard-2", Weight: 15, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "hubbard", Sites: 2}}},
		{Name: "synthetic-3", Weight: 10, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "synthetic", Orbitals: 3}}},
		{Name: "h2-rotated", Weight: 8, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "h2"}, Mode: "rotated"}},
		{Name: "hubbard-3", Weight: 6, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "hubbard", Sites: 3}}},
		{Name: "synthetic-4", Weight: 4, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "synthetic", Orbitals: 4}}},
		{Name: "h2-adapt", Weight: 2, Spec: RunSpec{Molecule: MoleculeSpec{Kind: "h2"}, Algorithm: AlgorithmAdapt,
			Adapt: AdaptSpec{MaxIterations: 4}}},
	}
	entries = append(entries, h2DistanceEntries(20, 25)...)
	return NewMix(MixServing, entries)
}

func sweepMix() (*Mix, error) {
	return NewMix(MixSweep, h2DistanceEntries(40, 40))
}

// h2DistanceEntries builds an H2 bond-length grid with geometrically
// decaying weights — the heavy-tailed "many distinct small jobs" part of
// the mix, where each distance is its own cache key. totalWeight is
// shared across the grid.
func h2DistanceEntries(points int, totalWeight float64) []MixEntry {
	entries := make([]MixEntry, 0, points)
	// Decay chosen so the most popular distance gets ~3x the weight of
	// the median one: hot geometries repeat, cold ones stay cold.
	const decay = 0.95
	w := 1.0
	sum := 0.0
	for i := 0; i < points; i++ {
		sum += w
		w *= decay
	}
	w = totalWeight / sum
	for i := 0; i < points; i++ {
		d := 0.5 + 0.05*float64(i) // 0.50 Å … grid step 0.05 Å
		entries = append(entries, MixEntry{
			Name:   fmt.Sprintf("h2-d%.2f", d),
			Weight: w,
			Spec:   RunSpec{Molecule: MoleculeSpec{Kind: "h2-distance", Distance: d}},
		})
		w *= decay
	}
	return entries
}

// Package costmodel fits and serves a per-spec runtime predictor for VQE
// jobs, and answers capacity questions with it. The model is a log-linear
// regression — log runtime over (qubits, log terms, log iterations) —
// calibrated from short probe runs through the real runspec engine and
// persisted as a JSON profile keyed by schema version and GOMAXPROCS, with
// stale profiles rejected at load.
//
// Two consumers share the model: the vqed admission controller prices
// Retry-After quotes with per-spec predictions instead of a global
// average, and the capacity planner (Plan) answers "how many workers for
// N req/s at p99 < X" analytically with an M/G/c approximation that
// `vqeload plan -validate` checks by replaying the mix against a real
// in-process fleet.
package costmodel

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runspec"
	"repro/internal/state"
)

// SchemaVersion gates persisted profiles; bump on any change to the
// feature vector or regression form.
const SchemaVersion = 1

// Features is the model's per-spec input vector.
type Features struct {
	// Qubits is the simulated register width — runtime is exponential in
	// it, which the log-linear form captures with a linear term.
	Qubits int `json:"qubits"`
	// Terms is the Hamiltonian term count driving each energy evaluation.
	Terms int `json:"terms"`
	// Iters is the expected optimizer-iteration proxy for the algorithm
	// and its bounds — a workload-shape constant, not a measurement.
	Iters int `json:"iters"`
}

// FeaturesFor derives the feature vector of a spec by building its
// molecule and observable (cheap for the serving-mix molecule sizes; the
// result is meant to be cached by spec hash — see Model.Estimator).
func FeaturesFor(spec *runspec.RunSpec) (Features, error) {
	c := *spec
	c.ApplyDefaults()
	m, err := runspec.BuildMolecule(c.Molecule)
	if err != nil {
		return Features{}, err
	}
	h, err := runspec.BuildObservable(m, c.Encoding)
	if err != nil {
		return Features{}, err
	}
	f := Features{Qubits: m.NumSpinOrbitals(), Terms: h.NumTerms()}
	if c.Downfold > 0 && 2*c.Downfold < f.Qubits {
		// Downfolded runs simulate the compressed register; the term count
		// of the full observable stays as a conservative proxy.
		f.Qubits = 2 * c.Downfold
	}
	f.Iters = iterProxy(&c)
	return f, nil
}

// iterProxy maps algorithm bounds to an expected-iteration constant. The
// absolute scale is irrelevant (the fit absorbs it); what matters is that
// specs bounding their optimizers rank below unbounded ones.
func iterProxy(c *runspec.RunSpec) int {
	switch c.Algorithm {
	case runspec.AlgorithmQPE:
		return c.QPE.Ancillas * c.QPE.TrotterSteps
	case runspec.AlgorithmAdapt:
		// Each outer iteration runs a full inner optimization.
		return c.Adapt.MaxIterations * 20
	default:
		if c.Optimizer.MaxIter > 0 {
			return c.Optimizer.MaxIter
		}
		if c.Optimizer.Method == "nelder-mead" {
			return 200
		}
		return 100
	}
}

// Sample is one probe measurement.
type Sample struct {
	Features Features `json:"features"`
	RunNs    int64    `json:"run_ns"`
	Class    string   `json:"class,omitempty"`
}

// Model is the fitted predictor: log(ns) = c0 + c1·qubits + c2·ln(terms)
// + c3·ln(iters).
type Model struct {
	Schema     int       `json:"schema"`
	GoMaxProcs int       `json:"gomaxprocs"`
	CreatedAt  time.Time `json:"created_at"`
	Coef       []float64 `json:"coef"` // length 4
	Samples    int       `json:"samples"`
	// RMSLE is the fit's root-mean-square error in log space — e.g. 0.2
	// means predictions are typically within ±22%.
	RMSLE float64 `json:"rmsle"`
}

// regressors expands a feature vector into the design row.
func regressors(f Features) [4]float64 {
	return [4]float64{1, float64(f.Qubits), math.Log(float64(max(1, f.Terms))), math.Log(float64(max(1, f.Iters)))}
}

// Fit solves the least-squares regression over the samples via the normal
// equations (the design is 4-wide; Gaussian elimination with partial
// pivoting is plenty).
func Fit(samples []Sample) (*Model, error) {
	if len(samples) < 4 {
		return nil, fmt.Errorf("%w: costmodel: need ≥ 4 samples to fit, got %d", core.ErrInvalidArgument, len(samples))
	}
	var xtx [4][5]float64 // augmented [XᵀX | Xᵀy]
	for _, s := range samples {
		if s.RunNs <= 0 {
			return nil, fmt.Errorf("%w: costmodel: non-positive runtime sample", core.ErrInvalidArgument)
		}
		x := regressors(s.Features)
		y := math.Log(float64(s.RunNs))
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				xtx[i][j] += x[i] * x[j]
			}
			xtx[i][4] += x[i] * y
		}
	}
	coef, err := solve4(&xtx)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Schema: SchemaVersion,
		//vqelint:ignore workerssemantics recording the process budget as a profile cache key, not resolving a worker count
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC(),
		Coef:       coef[:],
		Samples:    len(samples),
	}
	var sse float64
	for _, s := range samples {
		d := math.Log(float64(s.RunNs)) - m.logPredict(s.Features)
		sse += d * d
	}
	m.RMSLE = math.Sqrt(sse / float64(len(samples)))
	return m, nil
}

// solve4 solves the 4×4 augmented system in place.
func solve4(a *[4][5]float64) ([4]float64, error) {
	var w [4]float64
	for col := 0; col < 4; col++ {
		pivot := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return w, fmt.Errorf("%w: costmodel: degenerate probe set (feature column %d has no variation)", core.ErrInvalidArgument, col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < 5; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for i := 0; i < 4; i++ {
		w[i] = a[i][4] / a[i][i]
	}
	return w, nil
}

func (m *Model) logPredict(f Features) float64 {
	x := regressors(f)
	sum := 0.0
	for i, c := range m.Coef {
		sum += c * x[i]
	}
	return sum
}

// PredictNs returns the predicted runtime in nanoseconds.
func (m *Model) PredictNs(f Features) float64 { return math.Exp(m.logPredict(f)) }

// Predict returns the predicted runtime as a duration.
func (m *Model) Predict(f Features) time.Duration { return time.Duration(m.PredictNs(f)) }

// EstimateSpec predicts a spec's runtime (features derived on the spot;
// use Estimator for a cached hot-path variant).
func (m *Model) EstimateSpec(spec *runspec.RunSpec) (time.Duration, error) {
	f, err := FeaturesFor(spec)
	if err != nil {
		return 0, err
	}
	return m.Predict(f), nil
}

// Estimator adapts the model to the server.Config.Estimator shape with a
// per-spec-hash feature cache, so admission control pays the molecule
// build once per distinct spec class, not once per rejected request.
func (m *Model) Estimator() func(*runspec.RunSpec) (time.Duration, bool) {
	var mu sync.Mutex
	cache := map[string]time.Duration{}
	return func(spec *runspec.RunSpec) (time.Duration, bool) {
		if spec == nil {
			return 0, false
		}
		key := spec.Hash()
		mu.Lock()
		d, ok := cache[key]
		mu.Unlock()
		if ok {
			return d, true
		}
		est, err := m.EstimateSpec(spec)
		if err != nil {
			return 0, false
		}
		mu.Lock()
		if len(cache) > 4096 { // bound a hostile spec stream
			cache = map[string]time.Duration{}
		}
		cache[key] = est
		mu.Unlock()
		return est, true
	}
}

// Save writes the profile as indented JSON.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a profile, rejecting schema or GOMAXPROCS mismatches — a
// model measured on different parallelism predicts a different machine.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := new(Model)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("costmodel: parse %s: %w", path, err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("costmodel: %s has schema %d, want %d — re-probe", path, m.Schema, SchemaVersion)
	}
	//vqelint:ignore workerssemantics comparing against the profile's recorded cache key, not resolving a worker count
	if got := runtime.GOMAXPROCS(0); m.GoMaxProcs != got {
		return nil, fmt.Errorf("costmodel: %s was probed at GOMAXPROCS=%d, process has %d — re-probe", path, m.GoMaxProcs, got)
	}
	if len(m.Coef) != 4 {
		return nil, fmt.Errorf("costmodel: %s has %d coefficients, want 4", path, len(m.Coef))
	}
	return m, nil
}

// ProbeOptions tunes calibration runs.
type ProbeOptions struct {
	// Repetitions per entry (default 3); the median is kept so a GC pause
	// or scheduler hiccup cannot skew a class.
	Repetitions int
	// Pool shares one simulation pool across probe runs (nil sizes one
	// per run, like the daemon's workers do).
	Pool *state.Pool
}

// Probe measures each mix entry by running it through the real engine and
// returns one median sample per entry. Entries sharing a canonical hash
// are probed once.
func Probe(ctx context.Context, entries []runspec.MixEntry, opts ProbeOptions) ([]Sample, error) {
	reps := opts.Repetitions
	if reps <= 0 {
		reps = 3
	}
	seen := map[string]bool{}
	var samples []Sample
	for _, e := range entries {
		spec := e.Spec
		hash := spec.Hash()
		if seen[hash] {
			continue
		}
		seen[hash] = true
		f, err := FeaturesFor(&spec)
		if err != nil {
			return nil, fmt.Errorf("costmodel: probe %q: %w", e.Name, err)
		}
		walls := make([]int64, 0, reps)
		for i := 0; i < reps; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, err := runspec.Run(ctx, &spec, runspec.RunOptions{Pool: opts.Pool})
			if err != nil {
				return nil, fmt.Errorf("costmodel: probe %q: %w", e.Name, err)
			}
			walls = append(walls, res.WallNs)
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		samples = append(samples, Sample{Features: f, RunNs: walls[len(walls)/2], Class: e.Name})
	}
	return samples, nil
}

// DefaultProbeEntries returns the calibration workload: the serving-mix
// classes (deduplicated), which span the feature space the presets
// exercise — 4–8 qubits, 11–361 terms, bounded and unbounded optimizers.
func DefaultProbeEntries() ([]runspec.MixEntry, error) {
	mix, err := runspec.MixByName(runspec.MixServing)
	if err != nil {
		return nil, err
	}
	var entries []runspec.MixEntry
	seen := map[string]bool{}
	for _, e := range mix.Entries() {
		h := e.Spec.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		entries = append(entries, e)
	}
	return entries, nil
}

// LoadOrProbe returns the model at path if it is present and valid, else
// probes the default entries, fits, and saves to path. probed reports
// whether a measurement ran.
func LoadOrProbe(ctx context.Context, path string, opts ProbeOptions) (m *Model, probed bool, err error) {
	if path != "" {
		if m, err = Load(path); err == nil {
			return m, false, nil
		}
		if !os.IsNotExist(err) {
			return nil, false, err
		}
	}
	entries, err := DefaultProbeEntries()
	if err != nil {
		return nil, false, err
	}
	samples, err := Probe(ctx, entries, opts)
	if err != nil {
		return nil, false, err
	}
	if m, err = Fit(samples); err != nil {
		return nil, false, err
	}
	if path != "" {
		if err := m.Save(path); err != nil {
			return nil, false, err
		}
	}
	return m, true, nil
}

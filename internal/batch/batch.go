// Package batch implements the paper's §6.2 "batch execution" direction:
// concurrent simulation of independent circuits across a worker pool —
// within a node the analogue of concurrent GPU kernels, across workers the
// analogue of distributing independent circuits over nodes — plus the
// EQC-style ensemble execution of whole VQE instances (paper ref [15]).
package batch

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ansatz"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/vqe"
)

// Job is one independent circuit execution request.
type Job struct {
	ID      int
	Circuit *circuit.Circuit
	// Observable, when non-nil, asks for ⟨ψ|O|ψ⟩ of the final state;
	// otherwise the outcome distribution is returned.
	Observable *pauli.Op
	// Shots samples the distribution (0 = exact probabilities).
	Shots int
	Seed  uint64
}

// Result is the outcome of one job.
type Result struct {
	ID            int
	Expectation   float64
	Probabilities []float64
	Counts        map[uint64]int
	Err           error
}

// Pool executes independent jobs concurrently with bounded parallelism.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given concurrency (0 = 4).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 4
	}
	return &Pool{workers: workers}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// ExecuteAll runs every job and returns results ordered by job index
// (input order). Individual failures are reported per job, not globally.
func (p *Pool) ExecuteAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = runJob(jobs[i])
		}(i)
	}
	wg.Wait()
	return results
}

func runJob(j Job) (res Result) {
	res.ID = j.ID
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("batch: job %d: %v", j.ID, r)
		}
	}()
	if j.Circuit == nil {
		res.Err = fmt.Errorf("batch: job %d: %w: nil circuit", j.ID, core.ErrInvalidArgument)
		return res
	}
	// Each job owns its simulator: jobs are independent by construction,
	// so the only shared state is the read-only circuit.
	s := state.New(j.Circuit.NumQubits, state.Options{Workers: 1, Seed: j.Seed + 1})
	s.Run(j.Circuit)
	switch {
	case j.Observable != nil:
		// Workers 1, explicitly: parallelism comes from running many jobs
		// at once, so each job's batched reduction must stay serial (an
		// ExpectationOptions zero value now means GOMAXPROCS).
		res.Expectation = pauli.Expectation(s, j.Observable, pauli.ExpectationOptions{Workers: 1})
	case j.Shots > 0:
		res.Counts = s.SampleCounts(j.Shots)
	default:
		res.Probabilities = s.Probabilities()
	}
	return res
}

// Energies evaluates ⟨H⟩ for many parameter sets of one ansatz
// concurrently — the batched VQE-iteration pattern of §6.2.
func (p *Pool) Energies(h *pauli.Op, a ansatz.Ansatz, paramSets [][]float64) ([]float64, error) {
	if h.MaxQubit() >= a.NumQubits() {
		return nil, core.QubitError(h.MaxQubit(), a.NumQubits())
	}
	jobs := make([]Job, len(paramSets))
	for i, ps := range paramSets {
		if len(ps) != a.NumParameters() {
			return nil, fmt.Errorf("%w: parameter set %d has %d values, want %d",
				core.ErrDimensionMismatch, i, len(ps), a.NumParameters())
		}
		jobs[i] = Job{ID: i, Circuit: a.Circuit(ps), Observable: h}
	}
	results := p.ExecuteAll(jobs)
	out := make([]float64, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Expectation
	}
	return out, nil
}

// Gradient computes a central finite-difference gradient with all 2·dim
// perturbed energy evaluations executed concurrently.
func (p *Pool) Gradient(h *pauli.Op, a ansatz.Ansatz, params []float64, step float64) ([]float64, error) {
	if step <= 0 {
		step = 1e-6
	}
	dim := len(params)
	sets := make([][]float64, 0, 2*dim)
	for i := 0; i < dim; i++ {
		plus := append([]float64(nil), params...)
		plus[i] += step
		minus := append([]float64(nil), params...)
		minus[i] -= step
		sets = append(sets, plus, minus)
	}
	energies, err := p.Energies(h, a, sets)
	if err != nil {
		return nil, err
	}
	g := make([]float64, dim)
	for i := 0; i < dim; i++ {
		g[i] = (energies[2*i] - energies[2*i+1]) / (2 * step)
	}
	return g, nil
}

// EnsembleResult reports one member of an ensemble VQE run.
type EnsembleResult struct {
	Member int
	Energy float64
	Params []float64
	Err    error
}

// EnsembleVQE runs several independent VQE optimizations concurrently from
// different starting points (EQC-style ensembling, paper ref [15]) and
// returns all member results sorted by energy, best first. A canceled ctx
// halts every member at its next optimizer iteration; the members then
// report the best point they had reached.
func (p *Pool) EnsembleVQE(ctx context.Context, h *pauli.Op, makeAnsatz func() ansatz.Ansatz, members int, spread float64, seed uint64) ([]EnsembleResult, error) {
	if members < 1 {
		return nil, core.ErrInvalidArgument
	}
	results := make([]EnsembleResult, members)
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	rng := core.NewRNG(seed + 0xE9C)
	starts := make([][]float64, members)
	for m := range starts {
		a := makeAnsatz()
		x0 := make([]float64, a.NumParameters())
		if m > 0 { // member 0 starts from zero (the HF point)
			for i := range x0 {
				x0[i] = spread * rng.NormFloat64()
			}
		}
		starts[m] = x0
	}
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[m] = runEnsembleMember(ctx, h, makeAnsatz(), starts[m], m)
		}(m)
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool {
		if (results[i].Err == nil) != (results[j].Err == nil) {
			return results[i].Err == nil
		}
		return results[i].Energy < results[j].Energy
	})
	return results, nil
}

func runEnsembleMember(ctx context.Context, h *pauli.Op, a ansatz.Ansatz, x0 []float64, m int) (res EnsembleResult) {
	res.Member = m
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("batch: ensemble member %d: %v", m, r)
		}
	}()
	drv, err := vqe.New(h, a, vqe.Options{Mode: vqe.Direct, Workers: 1})
	if err != nil {
		res.Err = err
		return res
	}
	r, err := drv.MinimizeLBFGS(ctx, x0, opt.LBFGSOptions{}, vqe.ResilienceOptions{})
	if err != nil {
		// Fall back to derivative-free optimization for non-exponential
		// ansaetze.
		r, err = drv.Minimize(ctx, x0, opt.NelderMeadOptions{MaxIter: 3000}, vqe.ResilienceOptions{})
	}
	res.Energy, res.Params, res.Err = r.Energy, r.Params, err
	return res
}

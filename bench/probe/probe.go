// Package probe holds the per-layer probes of the benchmark, one file per
// layer. Each probe calls the layer's public functions on a workload's
// own inputs (its molecule, circuit, observable and final θ), repeats the
// call, and reports medians. The probes are deliberately the only part of
// the benchmark that touches layer APIs below runspec: when a layer's API
// is replaced, retarget that layer's file and nothing else.
package probe

import (
	"time"

	"repro/internal/runspec"
)

// Metrics maps a per-layer metric name to its value.
type Metrics map[string]float64

// Add copies every metric of o into m.
func (m Metrics) Add(o Metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// Env says how hard to probe and where spans go.
type Env struct {
	// Reps is the number of repetitions per probed call.
	Reps int
	// Budget caps the time spent repeating one call; at least three
	// repetitions always run, so a 20-qubit sweep is not repeated twenty
	// times when three already take seconds.
	Budget time.Duration
	// Span receives one span per repetition, for the trace.
	Span func(name string, start, end time.Time)
}

// Inputs are a workload's own inputs: the spec it runs, the parameter
// vector it ended on, and — for Adapt — the operators it selected.
type Inputs struct {
	Spec      *runspec.RunSpec
	Theta     []float64
	Operators []string
}

// time repeats fn and returns each repetition's duration in milliseconds.
func (e Env) time(name string, fn func()) []float64 {
	reps := max(e.Reps, 3)
	var out []float64
	begin := time.Now()
	for i := 0; i < reps; i++ {
		if i >= 3 && e.Budget > 0 && time.Since(begin) > e.Budget {
			break
		}
		start := time.Now()
		fn()
		end := time.Now()
		e.Span(name, start, end)
		out = append(out, float64(end.Sub(start))/1e6)
	}
	return out
}

package main

import (
	"context"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/bench/probe"
	"repro/internal/runspec"
	"repro/internal/telemetry"
)

// window is what one timed closed-loop stretch completed.
type window struct {
	wall time.Duration
	// latMs is the caller-observed latency of every completed operation.
	latMs []float64
	// work counts completed work in the workload's own unit (solves,
	// energy evaluations, jobs, sweep points).
	work      float64
	attempted int
	failed    int
}

func (w *window) merge(o window) {
	w.wall += o.wall
	w.latMs = append(w.latMs, o.latMs...)
	w.work += o.work
	w.attempted += o.attempted
	w.failed += o.failed
}

// workload is one named benchmark workload. A run calls setUp several
// times (tearing down in between) to time set-up, measures on the last
// one, then verifies and tears down.
type workload interface {
	// setUp builds the inputs from the seed, starts whatever the workload
	// needs, and warms it up; everything here is outside the timed window.
	setUp(ctx context.Context) error
	tearDown()
	// measure runs the closed loop for about d and returns what completed
	// in it. A nil recorder means an untraced window.
	measure(ctx context.Context, d time.Duration, rec *recorder) window
	// workPID is the process that does the workload's computing: the
	// benchmark itself in-process, the daemon when serving.
	workPID() int
	// verify checks everything measured so far and returns one line per
	// failed check.
	verify(ctx context.Context) []string
	// layers turns the traced window's spans and the layer probes into
	// per-layer metrics.
	layers(ctx context.Context, rec *recorder) (probe.Metrics, error)
}

// config is what every workload is built from.
type config struct {
	seed    uint64
	seconds float64
	// vqed is the daemon binary; tmp is a directory for spools, removed
	// when the run ends.
	vqed string
	tmp  string
	// probe sizes the per-layer probes.
	probe probe.Env
	// setUps is the least number of times a run sets its workload up;
	// setup_s is the median, so one slow process spawn does not move it.
	setUps int
}

// workloadInfo names a workload, its unit of work, the operation whose
// latency it reports, and why it exists (the line BENCHMARK.json records).
type workloadInfo struct {
	name string
	unit string
	op   string
	why  string
	new  func(config) workload
}

var workloads = []workloadInfo{
	{"adapt12", "solves", "one Adapt-VQE solve",
		"the paper's Fig. 5 solve (12-qubit water, Adapt-VQE): per-gate and per-term overhead at 4096 amplitudes, not bandwidth",
		func(c config) workload { return newAdapt12(c) }},
	{"wide20", "evals", "one energy evaluation",
		"20-qubit Hubbard HEA with fusion: a 16 MiB state beyond L2, so the fused executor and the expectation sweep are memory-bound; one run per window, so op_p50_ms here is just 1000/work_per_s",
		func(c config) workload { return newWide20(c) }},
	{"serve_mix", "jobs", "one job, submit to terminal SSE frame",
		"vqed over loopback HTTP, 2 closed-loop clients, 70% unseen 4-8 qubit specs and 30% cache hits: admission, journal fsync, queue and SSE dominate",
		func(c config) workload { return newServeMix(c) }},
	{"serve_sweep", "points", "one 33-point family, submit to family done",
		"33-point Hubbard sweep families through /v1/sweeps: the second lifecycle, point-level journal records, build cache and warm starts",
		func(c config) workload { return newServeSweep(c) }},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// opResult is what one operation of a closed loop reports: whether it
// succeeded, how long its caller waited, and when each unit of its work
// completed (one time for a job, 33 for a family).
type opResult struct {
	ok   bool
	ms   float64
	done []time.Time
}

// closedLoop runs clients callers, each taking the next operation index
// from a shared counter, until d has passed or — when limit is positive —
// limit operations have been issued; operations in flight at the deadline
// finish and are checked, and their latency counts.
//
// With one caller the window runs to the last completion, so a run of
// five 4-second solves is not rounded to the deadline. With several, work
// counts only up to the deadline and the window is d: otherwise the
// stretch in which one caller has stopped and the other still finishes —
// up to a whole 4-second family — would be measured at half the
// concurrency, by an amount that depends on where the deadline fell.
func closedLoop(ctx context.Context, d time.Duration, limit, clients int, next *int,
	op func(ctx context.Context, client, index int) opResult) window {
	var mu sync.Mutex
	var w window
	var done []time.Time
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if time.Since(begin) >= d && w.attempted > 0 || limit > 0 && w.attempted == limit {
					mu.Unlock()
					return
				}
				i := *next
				*next++
				w.attempted++
				mu.Unlock()
				r := op(ctx, c, i)
				mu.Lock()
				if r.ok {
					w.latMs = append(w.latMs, r.ms)
					done = append(done, r.done...)
				} else {
					w.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	count := func(end time.Time) {
		w.work = 0
		for _, at := range done {
			if !at.After(end) {
				w.work++
			}
		}
		w.wall = end.Sub(begin)
	}
	if clients > 1 {
		count(begin.Add(d))
	}
	if w.work == 0 {
		// One caller, or a window shorter than one unit of work.
		count(time.Now())
	}
	return w
}

// timedRun is runspec.Run with the two timestamps the trace needs: when
// set-up (molecule, observable, FCI reference) ended and when each
// optimizer iteration reported.
type timedRun struct {
	start, setupDone, end time.Time
	iterations            []time.Time
	// firstEnergy is the best energy the first optimizer iteration
	// reported (for Nelder–Mead: the best vertex of the initial simplex).
	firstEnergy float64
	res         *runspec.Result
	err         error
}

func runTimed(ctx context.Context, spec *runspec.RunSpec, opts runspec.RunOptions) timedRun {
	var t timedRun
	opts.OnProgress = func(p runspec.Progress) {
		now := time.Now()
		if p.Phase == "setup" {
			t.setupDone = now
			return
		}
		if len(t.iterations) == 0 {
			t.firstEnergy = p.Energy
		}
		t.iterations = append(t.iterations, now)
	}
	t.start = time.Now()
	t.res, t.err = runspec.Run(ctx, spec, opts)
	t.end = time.Now()
	return t
}

// record writes the run's spans: the operation, its set-up, and one span
// per optimizer iteration. It returns the operation's span ID.
func (t timedRun) record(rec *recorder, name string, op int) int {
	if rec == nil {
		return 0
	}
	id := rec.add(name, 0, op, t.start, t.end)
	if !t.setupDone.IsZero() {
		rec.add("runspec.setup", id, op, t.start, t.setupDone)
	}
	// The optimizer's first report closes whatever it does before its
	// first iteration (Nelder–Mead: the whole initial simplex), so only
	// the gaps after it are iterations.
	prev, gap := t.setupDone, "vqe.first_report"
	for _, at := range t.iterations {
		if !prev.IsZero() {
			rec.add(gap, id, op, prev, at)
		}
		prev, gap = at, "vqe.iteration"
	}
	return id
}

// setupMetrics is the set-up time of one in-process run and its share of
// the run.
func (t timedRun) setupMetrics() probe.Metrics {
	setup := t.setupDone.Sub(t.start)
	return probe.Metrics{
		"runspec.setup_ms":    float64(setup) / 1e6,
		"runspec.setup_share": probe.Ratio(float64(setup), float64(t.end.Sub(t.start))),
	}
}

// layerProbes runs the in-process layer probes, chem through vqe, on one
// spec and final θ, and closes the books on one energy evaluation.
func layerProbes(e probe.Env, body string, in probe.Inputs) (probe.Metrics, error) {
	out := probe.Metrics{}
	add := out.Add
	m, err := probe.ParseHash(e, []byte(body))
	if err != nil {
		return nil, err
	}
	add(m)
	mol, m, err := probe.Chem(e, in)
	if err != nil {
		return nil, err
	}
	add(m)
	h, m, err := probe.Fermion(e, in, mol)
	if err != nil {
		return nil, err
	}
	add(m)
	a, err := probe.BuildAnsatz(in, mol.NumSpinOrbitals(), mol.NumElectrons)
	if err != nil {
		return nil, err
	}
	c, m, err := probe.Ansatz(e, in, a)
	if err != nil {
		return nil, err
	}
	add(m)
	s, pathMs, m := probe.State(e, in, c)
	add(m)
	add(probe.Pauli(e, in, h, s))
	m, err = probe.VQE(e, in, h, a, s, mol.NumElectrons)
	if err != nil {
		return nil, err
	}
	add(m)
	out["vqe.energy_unattributed_share"] = probe.Unattributed(out["vqe.energy_ms"],
		out["ansatz.circuit_ms"], pathMs, out["pauli.evaluate_ms"])
	return out, nil
}

// inProcess is the part of a workload that runs inside the benchmark
// process: it owns the process-level counters of the traced window.
type inProcess struct {
	gcPauseMs, cpuS float64
	// phaseS is the growth of the engine's own vqe.phase.* timers over the
	// traced window, in seconds; wallS is the window's busy time.
	phaseS map[string]float64
	wallS  float64
}

func (p *inProcess) workPID() int { return os.Getpid() }

func gcPauseTotalMs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6
}

// account brackets a traced window with the process's own counters; an
// untraced window just runs.
func (p *inProcess) account(rec *recorder, fn func() window) window {
	if rec == nil {
		return fn()
	}
	gc := gcPauseTotalMs()
	cpu := procCPUSeconds(os.Getpid())
	// The engine's phase timers only tick while telemetry is on; turning
	// it on for the traced window is part of what tracing costs.
	telemetry.Enable()
	t0 := telemetry.Capture()
	w := fn()
	t1 := telemetry.Capture()
	telemetry.Disable()
	p.gcPauseMs = gcPauseTotalMs() - gc
	p.cpuS = procCPUSeconds(os.Getpid()) - cpu
	p.phaseS = map[string]float64{}
	for _, ph := range []string{"prepare", "expect", "gradient"} {
		name := "vqe.phase." + ph
		p.phaseS[ph] = float64(t1.Timers[name].TotalNs-t0.Timers[name].TotalNs) / 1e9
	}
	p.wallS = w.wall.Seconds()
	return w
}

// layerMetrics is the per-layer report of an in-process workload: the
// layer probes on its spec and final θ, what its trace says about set-up
// and iterations, and the window's process counters.
func (p *inProcess) layerMetrics(e probe.Env, body string, in probe.Inputs, spans []span, opName string) (probe.Metrics, error) {
	in.Spec.ApplyDefaults()
	m, err := layerProbes(e, body, in)
	if err != nil {
		return nil, err
	}
	setup := durationsMs(spans, "runspec.setup")
	m.Add(probe.Metrics{
		"runspec.setup_ms":         probe.Median(setup),
		"runspec.setup_share":      probe.Ratio(sum(setup), sum(durationsMs(spans, opName))),
		"vqe.iteration_p50_ms":     probe.Median(durationsMs(spans, "vqe.iteration")),
		"process.gc_pause_ms":      p.gcPauseMs,
		"process.cpu_s":            p.cpuS,
		"telemetry.prepare_share":  probe.Ratio(p.phaseS["prepare"], p.wallS),
		"telemetry.expect_share":   probe.Ratio(p.phaseS["expect"], p.wallS),
		"telemetry.gradient_share": probe.Ratio(p.phaseS["gradient"], p.wallS),
	})
	return m, nil
}

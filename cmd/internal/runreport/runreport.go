// Package runreport is the shared observability harness for the cmd
// binaries: a common -metrics / -report / -profile flag set, pprof
// capture, and a machine-readable run report (run_report.json) built from
// the process-wide telemetry scope. CI uploads the report as an artifact
// and diffs it across commits; humans read the text snapshot printed to
// stderr.
package runreport

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// Flags holds the observability options shared by vqe, nwqsim, benchfigs,
// and hamiltonian.
type Flags struct {
	Metrics bool
	Report  string
	Profile string
}

// AddFlags registers the shared flag set on fs (the default CommandLine
// set in practice) and returns the destination struct.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Metrics, "metrics", false,
		"enable telemetry: print a metrics snapshot to stderr and write a run report on exit")
	fs.StringVar(&f.Report, "report", "out/run_report.json",
		"run report path (written when -metrics is set)")
	fs.StringVar(&f.Profile, "profile", "",
		"write pprof profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	return f
}

// Report is the run_report.json schema. Phases is the per-phase wall-time
// view (timer totals); Pool summarizes worker-pool health; the embedded
// snapshot carries every raw instrument for ad-hoc diffing.
type Report struct {
	Command    string             `json:"command"`
	Args       []string           `json:"args,omitempty"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Qubits     int                `json:"qubits,omitempty"`
	Terms      int                `json:"terms,omitempty"`
	WallNs     int64              `json:"wall_ns"`
	PhaseNs    map[string]int64   `json:"phase_ns,omitempty"`
	Pool       *PoolReport        `json:"pool,omitempty"`
	Extras     map[string]float64 `json:"extras,omitempty"`
	Metrics    telemetry.Snapshot `json:"metrics"`
}

// PoolReport condenses the state.Pool instruments.
type PoolReport struct {
	Workers     int64   `json:"workers"`
	Runs        int64   `json:"runs"`
	Chunks      int64   `json:"chunks"`
	Inline      int64   `json:"inline"`
	BusyNs      int64   `json:"busy_ns"`
	Utilization float64 `json:"utilization"` // busy / (wall × workers)
}

// Run is one observed process execution: create with Start immediately
// after flag.Parse, then Finish before exit.
type Run struct {
	command string
	flags   *Flags
	start   time.Time
	cpuOut  *os.File
	qubits  int
	terms   int
	extras  map[string]float64
}

// Start applies the flags: enables telemetry for -metrics and begins CPU
// profiling for -profile. The returned Run must be Finished.
func Start(command string, f *Flags) (*Run, error) {
	r := &Run{command: command, flags: f, start: time.Now(), extras: map[string]float64{}}
	if f.Metrics {
		telemetry.Enable()
	}
	if f.Profile != "" {
		out, err := os.Create(f.Profile + ".cpu.pprof")
		if err != nil {
			return nil, fmt.Errorf("runreport: %w", err)
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, fmt.Errorf("runreport: %w", err)
		}
		r.cpuOut = out
	}
	return r, nil
}

// SetQubits records the run's register width (the max across calls, so
// sweeps report their largest problem).
func (r *Run) SetQubits(n int) {
	if n > r.qubits {
		r.qubits = n
	}
}

// SetTerms records the observable's term count (max across calls).
func (r *Run) SetTerms(n int) {
	if n > r.terms {
		r.terms = n
	}
}

// Set attaches an extra named value to the report (figure headline
// numbers, speedups, deviations).
func (r *Run) Set(key string, v float64) { r.extras[key] = v }

// Finish stops profiling, writes the heap profile, prints the metrics
// snapshot, and emits the run report. Call exactly once, on the normal
// exit path.
func (r *Run) Finish() error {
	if r.cpuOut != nil {
		pprof.StopCPUProfile()
		if err := r.cpuOut.Close(); err != nil {
			return fmt.Errorf("runreport: %w", err)
		}
		heap, err := os.Create(r.flags.Profile + ".heap.pprof")
		if err != nil {
			return fmt.Errorf("runreport: %w", err)
		}
		runtime.GC() // fresh allocation picture before the heap dump
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return fmt.Errorf("runreport: %w", err)
		}
		if err := heap.Close(); err != nil {
			return fmt.Errorf("runreport: %w", err)
		}
		fmt.Fprintf(os.Stderr, "profiles: %s.cpu.pprof %s.heap.pprof\n", r.flags.Profile, r.flags.Profile)
	}
	if !r.flags.Metrics {
		return nil
	}
	rep := r.build(telemetry.Capture())
	fmt.Fprintf(os.Stderr, "\n== metrics (%s, wall %s) ==\n", r.command, time.Duration(rep.WallNs).Round(time.Microsecond))
	if err := rep.Metrics.WriteText(os.Stderr); err != nil {
		return err
	}
	// The default lives under out/ so a run leaves nothing in the
	// checkout root; create the directory the first time.
	if err := os.MkdirAll(filepath.Dir(r.flags.Report), 0o755); err != nil {
		return fmt.Errorf("runreport: %w", err)
	}
	out, err := os.Create(r.flags.Report)
	if err != nil {
		return fmt.Errorf("runreport: %w", err)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		out.Close()
		return fmt.Errorf("runreport: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("runreport: %w", err)
	}
	fmt.Fprintf(os.Stderr, "run report: %s\n", r.flags.Report)
	return nil
}

// build assembles the report from a snapshot (split from Finish for
// testability).
func (r *Run) build(snap telemetry.Snapshot) Report {
	rep := Report{
		Command:   r.command,
		Args:      os.Args[1:],
		GoVersion: runtime.Version(),
		//vqelint:ignore workerssemantics reporting the process setting, not resolving a worker count
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Qubits:     r.qubits,
		Terms:      r.terms,
		WallNs:     time.Since(r.start).Nanoseconds(),
		Metrics:    snap,
	}
	if len(r.extras) > 0 {
		rep.Extras = r.extras
	}
	if len(snap.Timers) > 0 {
		rep.PhaseNs = map[string]int64{}
		for _, name := range sortedTimerNames(snap.Timers) {
			rep.PhaseNs[name] = snap.Timers[name].TotalNs
		}
	}
	if w := snap.Gauges["state.pool.workers"]; w > 0 {
		pool := &PoolReport{
			Workers: w,
			Runs:    snap.Counters["state.pool.runs"],
			Chunks:  snap.Counters["state.pool.chunks"],
			Inline:  snap.Counters["state.pool.inline"],
			BusyNs:  snap.Timers["state.pool.busy"].TotalNs,
		}
		if rep.WallNs > 0 {
			pool.Utilization = float64(pool.BusyNs) / (float64(rep.WallNs) * float64(w))
		}
		rep.Pool = pool
	}
	return rep
}

func sortedTimerNames(m map[string]telemetry.TimerStat) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Command nwqsim runs a QASM-lite circuit file on one of the simulation
// backends a spec may name (single-node state vector, simulated
// multi-rank cluster, or density matrix) and prints the outcome
// distribution, sampling -shots from it. Backend selection and
// fault-drill flags are the shared specflags vocabulary; -backends lists
// runspec's backend table.
//
//	nwqsim circuit.qasm
//	nwqsim -backend nwq-cluster -ranks 4 circuit.qasm
//	nwqsim -shots 4096 -fuse circuit.qasm
//	nwqsim -noise 0.01 circuit.qasm          # density-matrix with noise
//	nwqsim -backend nwq-cluster -fault-drop 0.05 -metrics circuit.qasm
//	echo 'qreg q[2]\nh q[0]\ncx q[0], q[1]' | nwqsim -
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/cmd/internal/runreport"
	"repro/cmd/internal/specflags"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/qasm"
	"repro/internal/runspec"
	"repro/internal/state"
)

func main() {
	sf := specflags.Add(flag.CommandLine, specflags.Backend)
	var (
		shots = flag.Int("shots", 0, "sample this many shots (0 = exact probabilities only)")
		fuse  = flag.Bool("fuse", false, "apply gate fusion before executing")
		noise = flag.Float64("noise", 0, "depolarizing error rate (switches to the density-matrix backend)")
		top   = flag.Int("top", 16, "print at most this many outcomes")
		stats = flag.Bool("stats", false, "print circuit statistics and exit")
		list  = flag.Bool("backends", false, "list registered backends and exit")
	)
	obsFlags := runreport.AddFlags(flag.CommandLine)
	flag.Parse()
	if *list {
		for _, info := range runspec.Backends() {
			fmt.Printf("%-16s ≤%2d qubits  %s\n", info.Name, info.QubitLimit, info.Description)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nwqsim [flags] <circuit.qasm | ->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	rep, err := runreport.Start("nwqsim", obsFlags)
	if err != nil {
		fail(err)
	}

	c, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	rep.SetQubits(c.NumQubits)
	st := c.Stats()
	fmt.Printf("circuit: %d qubits, %d gates (%d 1q, %d 2q), depth %d\n",
		c.NumQubits, st.Total, st.OneQubit, st.TwoQubit, st.Depth)

	if *fuse {
		fused := circuit.Transpile(c, circuit.DefaultTranspileOptions())
		fst := fused.Stats()
		fmt.Printf("fused:   %d gates (%.1f%% reduction), depth %d\n",
			fst.Total, 100*(1-float64(fst.Total)/float64(st.Total)), fst.Depth)
		c = fused
	}
	if *stats {
		if err := rep.Finish(); err != nil {
			fail(err)
		}
		return
	}

	spec, err := sf.Spec()
	if err != nil {
		fail(err)
	}
	spec.ApplyDefaults()
	b := spec.Backend
	var noiseModel *density.NoiseModel
	if *noise > 0 {
		b.Accelerator = "nwq-dm"
		noiseModel = density.DepolarizingModel(*noise, 2**noise)
	}
	copts := b.ClusterOptions()
	fmt.Printf("backend: %s\n", label(b.Accelerator))

	start := time.Now()
	probs, served, err := simulate(context.Background(), c, b, copts, noiseModel)
	if err != nil {
		fail(err)
	}
	fmt.Printf("executed in %v\n\n", time.Since(start).Round(time.Microsecond))

	var counts map[uint64]int
	if *shots > 0 {
		// Every backend samples with the state vector's default seed.
		counts = state.SampleProbabilities(probs, *shots, core.NewRNG(0x5eed))
	}
	printDistribution(probs, counts, c.NumQubits, *shots, *top)
	if f := copts.Fault; f != nil {
		// Faults need a cluster backend, so a run the single-node engine
		// served is nwq-resilient's fallback.
		outcome := "all recovered"
		if served == "nwq-sv" {
			outcome = "the cluster gave up and nwq-sv served the run"
		}
		fmt.Printf("\nfaults injected: %d (%v) — %s\n",
			f.Injected(), f.InjectedByKind(), outcome)
	}
	if err := rep.Finish(); err != nil {
		fail(err)
	}
}

// label names the engine that serves a backend, as the backend line
// prints it.
func label(name string) string {
	switch name {
	case "nwq-sv-serial":
		return "nwq-sv"
	case "nwq-resilient":
		return "fallback(nwq-cluster→nwq-sv)"
	}
	return name
}

// simulate runs c from |0…0⟩ on the named backend and returns its outcome
// probabilities and the engine that served the run. nwq-resilient degrades
// to the single-node engine when the cluster fails.
func simulate(ctx context.Context, c *circuit.Circuit, b runspec.BackendSpec, copts cluster.Options, noise *density.NoiseModel) ([]float64, string, error) {
	workers := b.Workers
	switch b.Accelerator {
	case "nwq-dm":
		m := density.New(c.NumQubits)
		if err := m.Run(c, noise); err != nil {
			return nil, "", err
		}
		return m.Probabilities(), "nwq-dm", nil
	case "nwq-cluster", "nwq-resilient":
		s, err := cluster.Simulate(ctx, c, b.Ranks, copts)
		if err == nil {
			return s.Probabilities(), "nwq-cluster", nil
		}
		if b.Accelerator == "nwq-cluster" {
			return nil, "", err
		}
	case "nwq-sv-serial":
		workers = 1
	}
	s := state.New(c.NumQubits, state.Options{Workers: workers})
	s.Run(c)
	return s.Probabilities(), "nwq-sv", nil
}

func load(path string) (*circuit.Circuit, error) {
	if path == "-" {
		return qasm.Parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qasm.Parse(f)
}

func printDistribution(probs []float64, counts map[uint64]int, n, shots, top int) {
	type row struct {
		idx  int
		prob float64
	}
	var rows []row
	for i, p := range probs {
		if p > 1e-12 {
			rows = append(rows, row{i, p})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].prob > rows[j].prob })
	if len(rows) > top {
		fmt.Printf("top %d of %d outcomes:\n", top, len(rows))
		rows = rows[:top]
	}
	for _, r := range rows {
		line := fmt.Sprintf("|%0*b⟩  p = %.6f", n, r.idx, r.prob)
		if shots > 0 {
			line += fmt.Sprintf("   counts = %d", counts[uint64(r.idx)])
		}
		fmt.Println(line)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nwqsim:", err)
	os.Exit(1)
}

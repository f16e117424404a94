// Scaling demo: the same GHZ-entangling workload executed on the
// single-node engine with growing worker pools, and on the simulated
// multi-rank cluster backend with its communication accounting — the HPC
// execution models of the paper (§4, NWQ-Sim on Perlmutter).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/state"
)

func workload(n int) *circuit.Circuit {
	c := circuit.New(n)
	for layer := 0; layer < 4; layer++ {
		for q := 0; q < n; q++ {
			c.RY(0.1*float64(layer+q), q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	return c
}

func main() {
	const n = 20
	c := workload(n)
	fmt.Printf("workload: %d qubits, %d gates (state vector: %d MiB)\n\n",
		n, c.GateCount(), state.MemoryBytes(n)>>20)

	fmt.Println("single-node engine, worker-pool sweep:")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		s := state.New(n, state.Options{Workers: workers, ParallelThreshold: 1024})
		start := time.Now()
		s.Run(c)
		elapsed := time.Since(start)
		if workers == 1 {
			base = elapsed
		}
		fmt.Printf("  workers=%d: %8v  (speedup %.2fx)\n",
			workers, elapsed.Round(time.Millisecond), float64(base)/float64(elapsed))
	}

	fmt.Println("\nsimulated multi-rank cluster backend:")
	for _, ranks := range []int{1, 2, 4, 8} {
		cl, err := cluster.New(n, ranks)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := cl.RunContext(context.Background(), c); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		st := cl.Stats()
		fmt.Printf("  ranks=%d: %8v  local=%d global=%d swaps=%d moved=%.1f MiB\n",
			ranks, elapsed.Round(time.Millisecond),
			st.LocalGates, st.GlobalGates, st.QubitSwaps,
			float64(st.BytesTransferred)/(1<<20))
	}
	fmt.Println("\ngates on high (\"global\") qubits cost inter-rank traffic — the")
	fmt.Println("local/global asymmetry that dominates multi-node statevector scaling")
}

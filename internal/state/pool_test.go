package state

import (
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
)

func TestPoolRunCoversRangeOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const total = 1000
	hits := make([]int32, total)
	var mu sync.Mutex
	seenSlots := map[int]bool{}
	p.Run(total, 4, func(slot int, lo, hi uint64) {
		mu.Lock()
		seenSlots[slot] = true
		mu.Unlock()
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if len(seenSlots) != 4 {
		t.Errorf("expected 4 slots, saw %d", len(seenSlots))
	}
}

func TestPoolRunReusedAcrossCalls(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for call := 0; call < 50; call++ {
		sum := p.ReduceFloat(100, 3, func(lo, hi uint64) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		})
		if sum != 4950 {
			t.Fatalf("call %d: sum %v, want 4950", call, sum)
		}
	}
}

func TestPoolMoreChunksThanTotal(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var mu sync.Mutex
	visited := 0
	p.Run(3, 8, func(slot int, lo, hi uint64) {
		mu.Lock()
		visited += int(hi - lo)
		mu.Unlock()
	})
	if visited != 3 {
		t.Fatalf("visited %d of 3", visited)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				sum := p.ReduceFloat(256, 4, func(lo, hi uint64) float64 {
					return float64(hi - lo)
				})
				if sum != 256 {
					t.Errorf("sum %v", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// bellLikeState prepares a state big enough to cross both parallel
// thresholds, with structure on qubit 0 for Probability checks.
func bellLikeState(workers int) *State {
	const n = 13 // 8192 amplitudes
	s := New(n, Options{Workers: workers})
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.RY(0.2*float64(q+1), q)
	}
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	s.Run(c)
	return s
}

func TestProbabilityParallelMatchesSerial(t *testing.T) {
	ser := bellLikeState(1)
	par := bellLikeState(4)
	if par.WorkerPool() == nil {
		t.Fatal("parallel state did not create a worker pool")
	}
	for q := 0; q < ser.NumQubits(); q++ {
		ps, pp := ser.Probability(q), par.Probability(q)
		if math.Abs(ps-pp) > 1e-12 {
			t.Errorf("qubit %d: serial %v vs parallel %v", q, ps, pp)
		}
	}
}

func TestProbabilitiesParallelMatchesSerial(t *testing.T) {
	ser := bellLikeState(1)
	par := bellLikeState(4)
	// Force the pooled fill: the default gate threshold (1<<14) exceeds
	// this dim, so drop it.
	par.opts.ParallelThreshold = 1 << 10
	ps, pp := ser.Probabilities(), par.Probabilities()
	sum := 0.0
	for i := range ps {
		if math.Abs(ps[i]-pp[i]) > 1e-12 {
			t.Fatalf("index %d: serial %v vs parallel %v", i, ps[i], pp[i])
		}
		sum += pp[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestCloneSharesPool(t *testing.T) {
	s := New(13, Options{Workers: 4})
	if s.WorkerPool() == nil {
		t.Fatal("no pool on parallel state")
	}
	if c := s.Clone(); c.WorkerPool() != s.WorkerPool() {
		t.Error("clone did not share the parent's worker pool")
	}
}

func TestEnsurePoolIdempotent(t *testing.T) {
	s := New(13, Options{Workers: 1})
	if s.WorkerPool() != nil {
		t.Fatal("serial state should start without a pool")
	}
	p1 := s.EnsurePool(4)
	p2 := s.EnsurePool(8)
	if p1 == nil || p1 != p2 {
		t.Error("EnsurePool must create once and return the same pool")
	}
	// Gate application must stay serial for Workers:1 states even after a
	// pool was attached for expectation use.
	done := make(chan struct{})
	go func() {
		s.Run(circuit.New(13).H(0))
		close(done)
	}()
	<-done
}

package main

import (
	"fmt"
	"math"
	"sync"
)

// rng is splitmix64: small, seedable, and — unlike math/rand — fixed by
// this file, so the same seed yields the same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + 0x1234567}
	for _, c := range []byte(stream) {
		r.s = (r.s ^ uint64(c)) * 0x100000001b3
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn is uniform in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// The serving mix. A block of mixBlock operations always holds exactly
// these counts, shuffled by the seed: stratifying the classes keeps the
// heavy-tailed ones (an Adapt job costs ~50 cheap ones) at a fixed share
// of every run instead of a sampled one, which is what lets two runs with
// different seeds agree on throughput.
const (
	mixBlock = 200
	// mixHits of every block re-submit a recently completed spec: the
	// 30 % guaranteed result-cache hits.
	mixHits = 60
	// mixWarm fresh operations precede the timed list: they warm the
	// daemon and give the first hits something to refer to.
	mixWarm = 64
	// A hit refers to one of the hitWindow most recent fresh operations
	// that are at least hitLag positions back, so with two clients the
	// referent has all but certainly completed (the client waits if not)
	// and is far younger than the 256-entry result cache.
	hitWindow = 64
	hitLag    = 8
)

// mixClasses lists the fresh (never seen before) spec classes and how many
// of each a block holds; 140 fresh + 60 hits = mixBlock.
var mixClasses = []struct {
	name  string
	count int
}{
	{"h2", 56},       // h2-distance, UCCSD, L-BFGS: the common 4-qubit job
	{"hubbard2", 28}, // 2-site Hubbard with a unique u
	{"syn3", 21},     // 3-orbital synthetic molecule with a unique seed
	{"h2rot", 11},    // h2-distance in rotated measurement mode
	{"hubbard3", 11}, // 3-site Hubbard, 6 qubits
	{"syn4", 9},      // 4-orbital synthetic molecule, 8 qubits
	{"h2adapt", 4},   // Adapt-VQE on h2-distance: the heavy tail
}

// mixOp is one submission of the serving mix.
type mixOp struct {
	Index int
	Class string
	// Ref is the index of the fresh operation a hit re-submits, or -1.
	Ref  int
	Body string
}

// mixGen produces the serving mix's operation list, block by block; the
// list depends on nothing but the seed.
type mixGen struct {
	mu      sync.Mutex // op is called from every client
	seed    uint64
	r       *rng
	offsets [7]float64 // per-class parameter offset drawn from the seed
	serial  [7]int     // per-class count of specs issued so far
	ops     []mixOp
	fresh   []int // indices of fresh operations, in order
}

func newMixGen(seed uint64) *mixGen {
	g := &mixGen{seed: seed, r: newRNG(seed, "serve_mix")}
	for i := range g.offsets {
		g.offsets[i] = g.r.float()
	}
	for i := 0; i < mixWarm; i++ {
		// Warm-up walks the classes in proportion, cheapest first, so
		// every code path has run before the clock starts.
		g.appendFresh(warmClass(i))
	}
	return g
}

// warmClass spreads the warm-up over the classes roughly by weight.
func warmClass(i int) int {
	order := []int{0, 1, 2, 0, 3, 4, 0, 1, 5, 0, 2, 1, 0, 6, 0, 2}
	return order[i%len(order)]
}

// op returns operation i, generating blocks as needed.
func (g *mixGen) op(i int) mixOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i >= len(g.ops) {
		g.appendBlock()
	}
	return g.ops[i]
}

func (g *mixGen) appendBlock() {
	kinds := make([]int, 0, mixBlock)
	for c, mc := range mixClasses {
		for k := 0; k < mc.count; k++ {
			kinds = append(kinds, c)
		}
	}
	for k := 0; k < mixHits; k++ {
		kinds = append(kinds, -1)
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := g.r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	for _, c := range kinds {
		if c >= 0 {
			g.appendFresh(c)
			continue
		}
		// Candidates: fresh operations at least hitLag positions back.
		idx := len(g.ops)
		hi := len(g.fresh)
		for hi > 0 && g.fresh[hi-1] > idx-hitLag {
			hi--
		}
		lo := max(0, hi-hitWindow)
		ref := g.fresh[lo+g.r.intn(hi-lo)]
		g.ops = append(g.ops, mixOp{Index: idx, Class: "hit", Ref: ref, Body: g.ops[ref].Body})
	}
}

func (g *mixGen) appendFresh(class int) {
	k := g.serial[class]
	g.serial[class]++
	u := g.offsets[class]
	// Every spec differs from all earlier ones in one physical parameter,
	// moved by a step too small to change what the job costs.
	var body string
	switch mixClasses[class].name {
	case "h2":
		body = fmt.Sprintf(`{"molecule":{"kind":"h2-distance","distance":%.6f}}`, 0.60+0.30*u+1e-4*float64(k))
	case "hubbard2":
		body = fmt.Sprintf(`{"molecule":{"kind":"hubbard","sites":2,"u":%.6f}}`, 2+2*u+1e-3*float64(k))
	case "syn3":
		body = fmt.Sprintf(`{"molecule":{"kind":"synthetic","orbitals":3,"electrons":2,"seed":%d}}`, synSeed(g.seed, k))
	case "h2rot":
		body = fmt.Sprintf(`{"molecule":{"kind":"h2-distance","distance":%.6f},"mode":"rotated"}`, 1.00+0.30*u+1e-4*float64(k))
	case "hubbard3":
		body = fmt.Sprintf(`{"molecule":{"kind":"hubbard","sites":3,"electrons":2,"u":%.6f}}`, 2+2*u+1e-3*float64(k))
	case "syn4":
		body = fmt.Sprintf(`{"molecule":{"kind":"synthetic","orbitals":4,"electrons":2,"seed":%d}}`, synSeed(g.seed, k))
	case "h2adapt":
		body = fmt.Sprintf(`{"molecule":{"kind":"h2-distance","distance":%.6f},"algorithm":"adapt","adapt":{"max_iterations":4}}`, 0.70+0.30*u+1e-4*float64(k))
	}
	idx := len(g.ops)
	g.ops = append(g.ops, mixOp{Index: idx, Class: mixClasses[class].name, Ref: -1, Body: body})
	g.fresh = append(g.fresh, idx)
}

// synSeed gives synthetic molecules a seed unique within the run.
func synSeed(seed uint64, k int) uint64 { return 1 + (seed%1_000_000)*100_000 + uint64(k) }

// familyPoints is the size of every sweep family: repulsion 0.5:8.5:0.25.
const familyPoints = 33

// familyBody is sweep family k of a seed: 3-site Hubbard with a hopping
// unique to (seed, k), so no two families share a point and nothing is
// answered from the result cache. The hopping stays inside [1, 1.041), so
// a family costs the same whatever the seed.
func familyBody(seed uint64, k int) string { return sweepBody(seed, k, 0.25) }

// familyWarmBody is a 5-point family of the same shape, for warm-up.
func familyWarmBody(seed uint64) string { return sweepBody(seed, 4095, 2) }

func sweepBody(seed uint64, k int, step float64) string {
	t := 1 + float64((seed*7919+uint64(k))%4096)*1e-5
	return fmt.Sprintf(`{"base":{"molecule":{"kind":"hubbard","sites":3,"electrons":2,"t":%.9f}},`+
		`"axis":{"param":"repulsion","start":0.5,"stop":8.5,"step":%g}}`, t, step)
}

// adaptBody is the paper's Fig. 5 instance; it takes no seed.
const adaptBody = `{"molecule":{"kind":"water"},"algorithm":"adapt","backend":{"workers":2}}`

// adaptWarmBody exercises the same code paths in a fraction of a second.
const adaptWarmBody = `{"molecule":{"kind":"water"},"algorithm":"adapt","adapt":{"max_iterations":2},"backend":{"workers":2}}`

// wideBody is the 20-qubit memory-bound instance: 16 MiB of amplitudes
// against a 4 MiB L2. One hardware-efficient layer is 80 parameters, so
// Nelder–Mead spends 81 evaluations on its simplex and one or two per
// iteration after; the run is cut by its context, not by max_iter.
const wideBody = `{"molecule":{"kind":"hubbard","sites":10,"electrons":2},"ansatz":{"kind":"hea","layers":1},` +
	`"fusion":true,"optimizer":{"method":"nelder-mead","max_iter":1000000},"backend":{"workers":2}}`

// wideWarmBody is the same shape at 12 qubits, for warm-up only.
const wideWarmBody = `{"molecule":{"kind":"hubbard","sites":6,"electrons":2},"ansatz":{"kind":"hea","layers":1},` +
	`"fusion":true,"optimizer":{"method":"nelder-mead","max_iter":1},"backend":{"workers":2}}`

const wideParams = 80

// wideTheta draws the start vector for run k of a seed from U(-π, π). At
// θ = 0 the transpiler cancels the whole circuit, so the seeded start is
// what makes the load real.
func wideTheta(seed uint64, k, n int) []float64 {
	r := newRNG(seed, fmt.Sprintf("wide20/%d", k))
	x := make([]float64, n)
	for i := range x {
		x[i] = (2*r.float() - 1) * math.Pi
	}
	return x
}

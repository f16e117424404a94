package vqe

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/noise"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

var updateRoutes = flag.Bool("update-routes", false, "rewrite testdata/routes.json from the 2ⁿ route")

// routeCase is one fixed point of the in-process exponential route: an
// observable, an exponential ansatz at a seeded θ, and the Adapt pool that
// would be scanned from the state it prepares.
type routeCase struct {
	name  string
	h     *pauli.Op
	a     Exponential
	pool  []ansatz.Excitation
	theta []float64
	exact float64 // FCI energy: the variational floor
}

// routeGolden is what testdata/routes.json holds per case, recorded from
// the 2ⁿ route at the commit before the subspace route existed.
type routeGolden struct {
	Energy        float64   `json:"energy"`
	Gradient      []float64 `json:"gradient"`
	PoolGradients []float64 `json:"pool_gradients"`
}

// recordedRoutes is testdata/routes.json: the exponential route's values,
// held to 1e-10, and the bit patterns of energies from runs that never
// take the subspace route, held to the bit.
type recordedRoutes struct {
	Routes    map[string]routeGolden `json:"routes"`
	Fallbacks map[string]string      `json:"fallbacks"`
	Grid      map[string]gridRow     `json:"grid"`
}

// gridRow is what one run of the mode × fusion × entry-point grid leaves
// behind: the energy's bit pattern and the driver's execution accounting.
type gridRow struct {
	Energy           string `json:"energy_bits"`
	AnsatzExecutions int    `json:"ansatz_executions"`
	CacheRestores    int    `json:"cache_restores"`
	GatesApplied     uint64 `json:"gates_applied"`
}

const routesPath = "testdata/routes.json"

func loadRecorded(t *testing.T) recordedRoutes {
	t.Helper()
	raw, err := os.ReadFile(filepath.FromSlash(routesPath))
	if err != nil {
		t.Fatal(err)
	}
	var rec recordedRoutes
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// record rewrites one section of testdata/routes.json under -update-routes.
func record(t *testing.T, edit func(*recordedRoutes)) {
	t.Helper()
	if !*updateRoutes {
		return
	}
	var rec recordedRoutes
	if raw, err := os.ReadFile(filepath.FromSlash(routesPath)); err == nil {
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
	}
	edit(&rec)
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.FromSlash(routesPath), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func seededTheta(n int, seed uint64) []float64 {
	rng := core.NewRNG(seed)
	theta := make([]float64, n)
	for k := range theta {
		theta[k] = 0.2 * rng.NormFloat64()
	}
	return theta
}

// encodings are the fermion-to-qubit maps a spec can name.
var encodings = []struct {
	name string
	mk   func(int) (*fermion.Encoding, error)
}{
	{"jw", fermion.JordanWignerEncoding},
	{"bk", fermion.BravyiKitaevEncoding},
	{"parity", fermion.ParityEncoding},
}

// h2Encoded is H2's Hamiltonian and UCCSD ansatz under one encoding.
func h2Encoded(t testing.TB, mk func(int) (*fermion.Encoding, error)) (*pauli.Op, *ansatz.UCCSD, *fermion.Encoding) {
	t.Helper()
	enc, err := mk(4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := enc.Transform(chem.FermionicHamiltonian(chem.H2()))
	if err != nil {
		t.Fatal(err)
	}
	u, err := ansatz.NewUCCSDWithEncoding(4, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	return h.HermitianPart(), u, enc
}

func routeCases(t testing.TB) []routeCase {
	t.Helper()
	var cases []routeCase

	fciH2, err := chem.FCI(chem.H2())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range encodings {
		h, u, enc := h2Encoded(t, e.mk)
		cases = append(cases, routeCase{
			name:  "h2/" + e.name,
			h:     h,
			a:     u,
			pool:  append(ansatz.SinglesWithEncoding(4, 2, enc), ansatz.DoublesWithEncoding(4, 2, enc)...),
			theta: seededTheta(u.NumParameters(), 41),
			exact: fciH2.Energy,
		})
	}

	hub := chem.Hubbard(3, 1, 4, 3)
	fciHub, err := chem.FCI(hub)
	if err != nil {
		t.Fatal(err)
	}
	uHub, err := ansatz.NewUCCSD(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	poolHub, err := ansatz.NewPool(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, routeCase{
		name:  "hubbard3",
		h:     chem.QubitHamiltonian(hub),
		a:     uHub,
		pool:  poolHub.Ops,
		theta: seededTheta(uHub.NumParameters(), 43),
		exact: fciHub.Energy,
	})

	if !testing.Short() {
		water := chem.WaterLike()
		fciWater, err := chem.FCI(water)
		if err != nil {
			t.Fatal(err)
		}
		hW, aW, thetaW := waterAdaptAnsatz(t)
		poolW, err := ansatz.NewPool(12, water.NumElectrons)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, routeCase{name: "water12", h: hW, a: aW, pool: poolW.Ops, theta: thetaW, exact: fciWater.Energy})
	}
	return cases
}

// evalRoute evaluates a case on the driver New builds: the energy and
// adjoint gradient on its block, and the Adapt pool gradients on one of two
// routes — the exported PoolGradients on a 2ⁿ state the driver prepared,
// or the scan Adapt runs, over a block compiled for the ansatz and the pool
// together.
func evalRoute(t testing.TB, tc routeCase, subspaceRoute bool) routeGolden {
	t.Helper()
	d, err := New(tc.h, tc.a, Options{Mode: Direct, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := routeGolden{Gradient: make([]float64, len(tc.theta))}
	got.Energy = d.forward(tc.theta)
	d.adjointGradient(tc.theta, got.Gradient)
	if len(tc.pool) == 0 {
		return got
	}
	if !subspaceRoute {
		s := state.New(tc.a.NumQubits(), state.Options{Workers: 2})
		d.prepareAnsatz(s, tc.theta)
		got.PoolGradients = PoolGradients(s, tc.h, tc.pool)
		return got
	}
	m := len(tc.theta)
	all := append(append([]ansatz.Excitation(nil), tc.a.Operators()...), tc.pool...)
	block, err := compileSubspace(tc.a.Reference(), pauli.NewPlan(tc.h), all, 2, nil)
	if err != nil {
		t.Fatalf("%s: no block for ansatz and pool together: %v", tc.name, err)
	}
	at := make([]int, len(all))
	for k := range at {
		at[k] = k
	}
	phi, hPhi := make([]complex128, block.h.Dim()), make([]complex128, block.h.Dim())
	block.with(at[:m]).prepare(phi, tc.theta)
	got.PoolGradients = block.with(at[m:]).poolGradients(phi, hPhi)
	return got
}

func compareRoute(t *testing.T, name, route string, got, want routeGolden) {
	t.Helper()
	if math.Abs(got.Energy-want.Energy) > 1e-10 {
		t.Errorf("%s: %s energy %.15f, recorded %.15f", name, route, got.Energy, want.Energy)
	}
	for label, pair := range map[string][2][]float64{
		"gradient":      {got.Gradient, want.Gradient},
		"pool gradient": {got.PoolGradients, want.PoolGradients},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Errorf("%s: %s %s has %d entries, recorded %d", name, route, label, len(pair[0]), len(pair[1]))
			continue
		}
		for k := range pair[0] {
			if math.Abs(pair[0][k]-pair[1][k]) > 1e-9 {
				t.Errorf("%s: %s %s[%d] = %.15f, recorded %.15f", name, route, label, k, pair[0][k], pair[1][k])
			}
		}
	}
}

// TestExponentialRoutesMatchRecorded holds the block route for an
// exponential ansatz, and both pool scans, to the energy, adjoint gradient
// and Adapt pool-gradient vector recorded in testdata/routes.json: H2
// under three encodings, the 3-site Hubbard chain at U = 4, and 12-qubit
// water with the twelve operators the Fig. 5 solve selects.
func TestExponentialRoutesMatchRecorded(t *testing.T) {
	cases := routeCases(t)
	record(t, func(rec *recordedRoutes) {
		rec.Routes = map[string]routeGolden{}
		for _, tc := range cases {
			rec.Routes[tc.name] = evalRoute(t, tc, false)
		}
	})
	recorded := loadRecorded(t).Routes
	for _, tc := range cases {
		want, ok := recorded[tc.name]
		if !ok {
			t.Errorf("%s: no recorded values; run with -update-routes at a commit whose 2ⁿ route is trusted", tc.name)
			continue
		}
		for route, sub := range map[string]bool{"2ⁿ pool scan": false, "block pool scan": true} {
			got := evalRoute(t, tc, sub)
			compareRoute(t, tc.name, route, got, want)
			if got.Energy < tc.exact-1e-9 {
				t.Errorf("%s: %s energy %.12f below the exact ground state %.12f", tc.name, route, got.Energy, tc.exact)
			}
		}
	}
}

// expAnsatz is an exponential ansatz assembled by hand: any reference
// circuit, any generators — including those vqe.New must reject.
type expAnsatz struct {
	n   int
	ref *circuit.Circuit
	ops []ansatz.Excitation
}

func (a *expAnsatz) NumQubits() int                 { return a.n }
func (a *expAnsatz) NumParameters() int             { return len(a.ops) }
func (a *expAnsatz) Reference() *circuit.Circuit    { return a.ref.Clone() }
func (a *expAnsatz) Operators() []ansatz.Excitation { return a.ops }
func (a *expAnsatz) Circuit(params []float64) *circuit.Circuit {
	c := a.ref.Clone()
	for k, ex := range a.ops {
		ex.AppendExp(c, params[k])
	}
	return c
}

// fallbackCase is a run on H2 whose energy was recorded before the block
// served every exponential driver (or that runs on a backend or a circuit
// ansatz): it must land on those bits.
type fallbackCase struct {
	name string
	h    *pauli.Op     // nil: the H2 Hamiltonian run is handed
	a    ansatz.Ansatz // nil: Adapt over pool
	pool *ansatz.Pool
	opts Options
	how  string // "energy" at a seeded θ, "lbfgs" or "nelder-mead" for a few iterations
}

func fallbackCases(t testing.TB) (*pauli.Op, []fallbackCase) {
	t.Helper()
	h := chem.QubitHamiltonian(chem.H2())
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	hea, err := ansatz.NewHardwareEfficient(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ansatz.NewPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	breaking := symmetryBreakingPool(t, pool, 4)
	return h, []fallbackCase{
		{name: "hea/direct", a: hea, opts: Options{Mode: Direct}, how: "energy"},
		{name: "hea/nelder-mead", a: hea, opts: Options{Mode: Direct}, how: "nelder-mead"},
		{name: "uccsd/backend", a: u, opts: Options{Backend: &scriptedBackend{}}, how: "lbfgs"},
		{name: "uccsd/rotated", a: u, opts: Options{Mode: Rotated}, how: "energy"},
		{name: "uccsd/rotated-lbfgs", a: u, opts: Options{Mode: Rotated, Caching: true}, how: "lbfgs"},
		{name: "uccsd/sampled", a: u, opts: Options{Mode: Sampled, Shots: 2048, Seed: 7}, how: "energy"},
		{name: "pool/symmetry-breaking", pool: breaking, how: "adapt"},
	}
}

// symmetryBreakingPool is pool plus a rotation i·Y on every qubit. Those
// conserve nothing: the closure of any reference under them, the block an
// Adapt solve over this pool runs in, is the whole space.
func symmetryBreakingPool(t testing.TB, pool *ansatz.Pool, n int) *ansatz.Pool {
	t.Helper()
	out := &ansatz.Pool{Ops: append([]ansatz.Excitation(nil), pool.Ops...)}
	for q := 0; q < n; q++ {
		p, err := pauli.Single('Y', q)
		if err != nil {
			t.Fatal(err)
		}
		out.Ops = append(out.Ops, ansatz.Excitation{Label: "i·" + p.Compact(), Paulis: []pauli.Term{{Coeff: 1i, P: p}}})
	}
	return out
}

// run executes the case and returns its energy and execution accounting.
func (fc fallbackCase) run(t testing.TB, h *pauli.Op) (float64, Stats) {
	t.Helper()
	if fc.h != nil {
		h = fc.h
	}
	if fc.a == nil {
		res, err := Adapt(h, fc.pool, 4, 2, AdaptOptions{MaxIterations: 4, Reference: math.NaN()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy, res.TotalStats
	}
	d, err := New(h, fc.a, fc.opts)
	if err != nil {
		t.Fatal(err)
	}
	theta := seededTheta(fc.a.NumParameters(), 47)
	var res Result
	switch fc.how {
	case "energy":
		e := d.Energy(theta)
		return e, d.Stats()
	case "lbfgs":
		res, err = d.MinimizeLBFGS(context.Background(), theta, opt.LBFGSOptions{MaxIter: 5}, ResilienceOptions{})
	case "nelder-mead":
		res, err = d.Minimize(context.Background(), theta, opt.NelderMeadOptions{MaxIter: 40}, ResilienceOptions{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy, res.Stats
}

// TestFallbackRoutesBitEqualRecorded: the runs that once stayed off the
// block — a circuit ansatz, a backend, Rotated and Sampled mode, a pool
// that breaks the symmetries — land on the bits recorded before the block
// route existed; the exponential ones now prepare in a block.
func TestFallbackRoutesBitEqualRecorded(t *testing.T) {
	h, cases := fallbackCases(t)
	record(t, func(rec *recordedRoutes) {
		rec.Fallbacks = map[string]string{}
		for _, fc := range cases {
			e, _ := fc.run(t, h)
			rec.Fallbacks[fc.name] = fmt.Sprintf("%#x", math.Float64bits(e))
		}
	})
	recorded := loadRecorded(t).Fallbacks
	for _, fc := range cases {
		e, _ := fc.run(t, h)
		if got := fmt.Sprintf("%#x", math.Float64bits(e)); got != recorded[fc.name] {
			t.Errorf("%s: energy %v has bits %s, recorded %q", fc.name, e, got, recorded[fc.name])
		}
	}
}

// gridCases is every way a spec can ask the in-process driver for an H2
// energy — mode and its measurement options × fusion × entry point, for
// UCCSD and (where it applies) the hardware-efficient ansatz — plus UCCSD
// energies under the other two encodings, and one UCCSD energy on 12-qubit
// water per exact route and sampled.
func gridCases(t testing.TB) []fallbackCase {
	t.Helper()
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	hea, err := ansatz.NewHardwareEfficient(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	readout := noise.UniformReadout(4, 0.04, 0.06)
	modes := []struct {
		name string
		opts Options
	}{
		{"direct", Options{Mode: Direct}},
		{"rotated", Options{Mode: Rotated}},
		{"rotated+caching", Options{Mode: Rotated, Caching: true}},
		{"rotated+per-term", Options{Mode: Rotated, PerTermMeasurement: true}},
		{"sampled", Options{Mode: Sampled, Shots: 2048, Seed: 7}},
		{"sampled+readout", Options{Mode: Sampled, Shots: 2048, Seed: 7, Readout: &readout}},
	}
	var cases []fallbackCase
	for _, m := range modes {
		for _, fusion := range []string{"plain", "fused"} {
			o := m.opts
			o.Transpile = fusion == "fused"
			for _, how := range []string{"energy", "nelder-mead", "lbfgs"} {
				cases = append(cases, fallbackCase{name: "h2/uccsd/" + m.name + "/" + fusion + "/" + how, a: u, opts: o, how: how})
			}
			if o.Mode != Sampled && !o.PerTermMeasurement {
				for _, how := range []string{"energy", "nelder-mead"} { // no adjoint gradient for a circuit ansatz
					cases = append(cases, fallbackCase{name: "h2/hea/" + m.name + "/" + fusion + "/" + how, a: hea, opts: o, how: how})
				}
			}
		}
	}
	// Bravyi–Kitaev and parity references and excitations, in every mode
	// that prepares a 2ⁿ state to rotate or sample.
	for _, e := range encodings[1:] {
		hE, uE, _ := h2Encoded(t, e.mk)
		for _, m := range []int{1, 2, 4} {
			cases = append(cases, fallbackCase{name: "h2/uccsd-" + e.name + "/" + modes[m].name + "/plain/energy", h: hE, a: uE, opts: modes[m].opts, how: "energy"})
		}
	}
	if !testing.Short() {
		water := chem.WaterLike()
		hW := chem.QubitHamiltonian(water)
		uW, err := ansatz.NewUCCSD(12, water.NumElectrons)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range append(modes[:3:3], modes[4]) {
			o := m.opts
			o.Workers = 1
			cases = append(cases, fallbackCase{name: "water12/uccsd/" + m.name + "/plain/energy", h: hW, a: uW, opts: o, how: "energy"})
		}
	}
	return cases
}

// TestEnergyGridBitEqualRecorded holds every row of gridCases to the energy
// bits and the execution accounting recorded in testdata/routes.json.
func TestEnergyGridBitEqualRecorded(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	cases := gridCases(t)
	row := func(fc fallbackCase) gridRow {
		e, st := fc.run(t, h)
		return gridRow{Energy: fmt.Sprintf("%#x", math.Float64bits(e)), AnsatzExecutions: st.AnsatzExecutions,
			CacheRestores: st.CacheRestores, GatesApplied: st.GatesApplied}
	}
	record(t, func(rec *recordedRoutes) {
		rec.Grid = map[string]gridRow{}
		for _, fc := range cases {
			rec.Grid[fc.name] = row(fc)
		}
	})
	recorded := loadRecorded(t).Grid
	for _, fc := range cases {
		want, ok := recorded[fc.name]
		if !ok {
			t.Errorf("%s: no recorded row; run with -update-routes (without -short) at a trusted commit", fc.name)
			continue
		}
		if got := row(fc); got != want {
			t.Errorf("%s: %+v, recorded %+v", fc.name, got, want)
		}
	}
}

// TestEnergyIsOneRoutePerAnsatz: what a Direct-mode driver answers at θ does
// not depend on who asks. Energy, EnergyContext and the first objective value
// of Minimize and of MinimizeLBFGS from θ are the same bits — on the block
// (UCCSD) and through Plan.Evaluate (a circuit ansatz) — and none of them
// dips below FCI. The block a UCCSD driver compiles is the only vector space
// it ever allocates.
func TestEnergyIsOneRoutePerAnsatz(t *testing.T) {
	h, u, fci := h2Setup(t)
	cases := []fallbackCase{{name: "uccsd", a: u}}
	_, fallbacks := fallbackCases(t)
	for _, fc := range fallbacks {
		switch fc.name {
		case "hea/direct":
			cases = append(cases, fc)
		}
	}
	ctx := context.Background()
	halt := errors.New("first objective value read")
	for _, fc := range cases {
		withTelemetry(t)
		d, err := New(h, fc.a, Options{Mode: Direct})
		if err != nil {
			t.Fatal(err)
		}
		theta := seededTheta(fc.a.NumParameters(), 47)
		want := d.Energy(theta)
		if want < fci-1e-9 {
			t.Errorf("%s: energy %.12f below the exact ground state %.12f", fc.name, want, fci)
		}
		got := map[string]float64{}
		if got["EnergyContext"], err = d.EnergyContext(ctx, theta); err != nil {
			t.Fatal(err)
		}
		_, err = d.Minimize(ctx, theta, opt.NelderMeadOptions{Observer: func(s *opt.NelderMeadState) error {
			for i, x := range s.Simplex {
				if slices.Equal(x, theta) {
					got["Minimize"] = s.Values[i]
				}
			}
			return halt
		}}, ResilienceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, exponential := fc.a.(Exponential); exponential {
			res, err := d.MinimizeLBFGS(ctx, theta, opt.LBFGSOptions{Observer: func(*opt.LBFGSState) error { return halt }}, ResilienceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got["MinimizeLBFGS"] = res.Energy
		}
		for who, e := range got {
			if math.Float64bits(e) != math.Float64bits(want) {
				t.Errorf("%s: %s answers %v (%#x), Energy %v (%#x)", fc.name, who, e, math.Float64bits(e), want, math.Float64bits(want))
			}
		}
		if fc.name != "uccsd" {
			continue
		}
		if d.sub == nil || d.sim != nil {
			t.Errorf("uccsd: block %v, 2ⁿ simulator %v: want every entry point on the block and no simulator", d.sub != nil, d.sim != nil)
		}
		if compiles := telemetry.Capture().Counters["vqe.subspace.compiles"]; compiles != 1 {
			t.Errorf("uccsd: %d blocks compiled, want 1", compiles)
		}
	}
}

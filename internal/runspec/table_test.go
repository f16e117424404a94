package runspec

// The backend table and its adaptors under the one VQE loop: the catalog,
// the options each row reads, and the fault and fallback drills that drive
// vqe.Driver with an adaptor as its Backend.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/vqe"
)

// TestBackendTable: the table is the five built-in backends; only the
// cluster rows read ranks and fault; and only nwq-sv leaves ⟨H⟩ to the
// driver's own state vector.
func TestBackendTable(t *testing.T) {
	var names []string
	for _, r := range backends {
		names = append(names, r.name)
		wantDistributed := r.name == "nwq-cluster" || r.name == "nwq-resilient"
		if r.distributed != wantDistributed || (BackendSpec{Accelerator: r.name}).Distributed() != wantDistributed {
			t.Errorf("%s: distributed = %v, want %v", r.name, r.distributed, wantDistributed)
		}
		if built := r.build(BackendSpec{Accelerator: r.name}); (built == nil) != (r.name == "nwq-sv") {
			t.Errorf("%s: build returned %v", r.name, built)
		}
	}
	want := []string{"nwq-cluster", "nwq-dm", "nwq-resilient", "nwq-sv", "nwq-sv-serial"}
	if !slices.Equal(names, want) {
		t.Errorf("table rows %v, want %v", names, want)
	}
}

// TestBackendTableSorted: the rows, and so the catalog, are in name order.
func TestBackendTableSorted(t *testing.T) {
	if !slices.IsSortedFunc(backends, func(a, b backendRow) int { return strings.Compare(a.name, b.name) }) {
		t.Errorf("table rows not sorted by name: %v", Backends())
	}
}

// TestBackendNames: every row has a name of its own, and looking that
// name up finds the row.
func TestBackendNames(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range backends {
		if r.name == "" || seen[r.name] {
			t.Errorf("row name %q empty or repeated", r.name)
		}
		seen[r.name] = true
		if got, ok := lookupBackend(r.name); !ok || got.name != r.name || got.description != r.description {
			t.Errorf("lookupBackend(%q) = %+v, %v", r.name, got, ok)
		}
	}
}

// TestBackendCatalog: Backends, the daemon's capabilities contract, lists
// every row with its description and qubit limit.
func TestBackendCatalog(t *testing.T) {
	infos := Backends()
	if len(infos) != len(backends) {
		t.Fatalf("Backends() lists %d rows of %d", len(infos), len(backends))
	}
	for i, info := range infos {
		r := backends[i]
		if info != (BackendInfo{Name: r.name, Description: r.description, QubitLimit: r.qubitLimit}) {
			t.Errorf("Backends()[%d] = %+v, row %+v", i, info, r)
		}
		if info.Description == "" || info.QubitLimit <= 0 {
			t.Errorf("%s: description %q, qubit limit %d", info.Name, info.Description, info.QubitLimit)
		}
	}
}

// TestBackendQubitLimits: every limit is plausible, and every row, nwq-sv
// included, refuses a register wider than its limit.
func TestBackendQubitLimits(t *testing.T) {
	for _, r := range backends {
		if r.qubitLimit < 2 {
			t.Errorf("%s: implausible qubit limit %d", r.name, r.qubitLimit)
		}
		s := RunSpec{Backend: BackendSpec{Accelerator: r.name}}
		s.ApplyDefaults()
		if _, err := s.Backend.backend(r.qubitLimit); err != nil {
			t.Errorf("%s: %d qubits refused: %v", r.name, r.qubitLimit, err)
		}
		if _, err := s.Backend.backend(r.qubitLimit + 1); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("%s: %d qubits: err = %v, want ErrInvalidArgument", r.name, r.qubitLimit+1, err)
		}
	}
}

// TestUnknownBackendRejected: a name outside the table fails Parse with
// ErrInvalidArgument naming what the table has.
func TestUnknownBackendRejected(t *testing.T) {
	_, err := Parse([]byte(`{"backend":{"accelerator":"hal9000"}}`))
	if !errors.Is(err, core.ErrInvalidArgument) || !strings.Contains(err.Error(), "nwq-sv-serial") {
		t.Errorf("Parse: %v, want ErrInvalidArgument listing the table", err)
	}
}

// TestLookupUnknownBackend: the construction path, reached without Parse,
// refuses a name the table lacks, the empty name included.
func TestLookupUnknownBackend(t *testing.T) {
	for _, name := range []string{"hal9000", ""} {
		if _, ok := lookupBackend(name); ok {
			t.Errorf("lookupBackend(%q) found a row", name)
		}
		if _, err := (BackendSpec{Accelerator: name}).backend(4); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("backend(%q): %v, want ErrInvalidArgument", name, err)
		}
	}
}

// TestClusterRanksThreaded: the cluster rows read the spec's ranks, which
// default to 4 on those rows only.
func TestClusterRanksThreaded(t *testing.T) {
	for name, wantRanks := range map[string]int{"nwq-cluster": 4, "nwq-resilient": 4, "nwq-dm": 0, "nwq-sv-serial": 0} {
		s := RunSpec{Backend: BackendSpec{Accelerator: name}}
		s.ApplyDefaults()
		if s.Backend.Ranks != wantRanks {
			t.Errorf("%s: defaulted ranks %d, want %d", name, s.Backend.Ranks, wantRanks)
		}
	}
	row, _ := lookupBackend("nwq-cluster")
	for _, ranks := range []int{4, 8} {
		if cl, ok := row.build(BackendSpec{Accelerator: "nwq-cluster", Ranks: ranks}).(clusterBackend); !ok || cl.ranks != ranks {
			t.Errorf("nwq-cluster with %d ranks built %#v", ranks, cl)
		}
	}
}

// TestBackendOptionsThreaded: each row builds its adaptor from the spec's
// own section — the fault drill for the clusters, the spec's workers for
// the resilient chain's single-node member, and one worker for
// nwq-sv-serial whatever the spec says.
func TestBackendOptionsThreaded(t *testing.T) {
	spec := BackendSpec{Accelerator: "nwq-cluster", Ranks: 8, Workers: 3,
		Fault: &FaultSpec{Seed: 9, DropProb: 0.1, SilentProb: 0.01}}
	row, _ := lookupBackend("nwq-cluster")
	cl, ok := row.build(spec).(clusterBackend)
	if !ok || cl.ranks != 8 || cl.opts.Fault == nil || cl.opts.NormCheckEvery != 8 {
		t.Errorf("nwq-cluster built %#v, want 8 ranks with the fault drill and the watchdog", row.build(spec))
	}
	if o := (BackendSpec{Accelerator: "nwq-cluster", Fault: &FaultSpec{Seed: 9}}).ClusterOptions(); o.Fault != nil {
		t.Errorf("a fault section without probabilities built an injector: %#v", o)
	}

	row, _ = lookupBackend("nwq-resilient")
	fb, ok := row.build(spec).(fallback)
	if !ok || fb.primary.(clusterBackend).ranks != 8 || fb.secondary != (svBackend{3}) {
		t.Errorf("nwq-resilient built %#v, want the 8-rank cluster then a 3-worker state vector", row.build(spec))
	}
	row, _ = lookupBackend("nwq-sv-serial")
	if sv := row.build(spec); sv != (svBackend{1}) {
		t.Errorf("nwq-sv-serial built %#v, want one worker", sv)
	}
}

func bellCircuit() *circuit.Circuit {
	return circuit.New(2).H(0).CX(0, 1)
}

// TestAllBackendsAgreeOnBell: every row that builds an adaptor reads
// ⟨ZZ⟩ = 1 on a Bell pair; the cluster rows clamp four ranks to one.
func TestAllBackendsAgreeOnBell(t *testing.T) {
	obs := pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
	for _, r := range backends {
		s := RunSpec{Backend: BackendSpec{Accelerator: r.name}}
		s.ApplyDefaults()
		b, err := s.Backend.backend(2)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			continue
		}
		e, err := b.Expectation(context.Background(), bellCircuit(), obs)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if math.Abs(e-1) > 1e-9 {
			t.Errorf("%s: ⟨ZZ⟩ = %v, want 1", r.name, e)
		}
	}
}

// TestResilientBackendRow: nwq-resilient, as a spec names it, is the
// cluster degrading to the state vector, reads ⟨ZZ⟩ = 1 on a Bell pair,
// and allows as many qubits as its most capable member.
func TestResilientBackendRow(t *testing.T) {
	s := RunSpec{Backend: BackendSpec{Accelerator: "nwq-resilient"}}
	s.ApplyDefaults()
	b, err := s.Backend.backend(2)
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := b.(fallback)
	if !ok {
		t.Fatalf("nwq-resilient built %#v, want a fallback chain", b)
	}
	if _, ok := fb.primary.(clusterBackend); !ok {
		t.Errorf("chain primary %#v, want the cluster", fb.primary)
	}
	if _, ok := fb.secondary.(svBackend); !ok {
		t.Errorf("chain secondary %#v, want the state vector", fb.secondary)
	}
	e, err := b.Expectation(context.Background(), bellCircuit(), pauli.NewOp().Add(pauli.MustParse("ZZ"), 1))
	if err != nil || math.Abs(e-1) > 1e-9 {
		t.Errorf("nwq-resilient ⟨ZZ⟩ = %v, %v; want 1", e, err)
	}
	row, _ := lookupBackend("nwq-resilient")
	for _, member := range []string{"nwq-cluster", "nwq-sv"} {
		if m, _ := lookupBackend(member); row.qubitLimit < m.qubitLimit {
			t.Errorf("chain limit %d below %s's %d", row.qubitLimit, member, m.qubitLimit)
		}
	}
}

// h2On minimizes H2/UCCSD from zero on the given backend with
// Nelder–Mead, the routine the drills below share.
func h2On(t *testing.T, ctx context.Context, backend vqe.Backend) vqe.Result {
	t.Helper()
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := vqe.New(chem.QubitHamiltonian(chem.H2()), u, vqe.Options{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	res, err := drv.Minimize(ctx, make([]float64, u.NumParameters()),
		opt.NelderMeadOptions{MaxIter: 2000}, vqe.ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func h2FCI(t *testing.T) float64 {
	t.Helper()
	fci, err := chem.FCI(chem.H2())
	if err != nil {
		t.Fatal(err)
	}
	return fci.Energy
}

// TestVQEAlgorithmH2: the loop reaches FCI on a state-vector adaptor under
// both optimizers, and counts what it asked the backend for.
func TestVQEAlgorithmH2(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	fci := h2FCI(t)
	u, _ := ansatz.NewUCCSD(4, 2)
	x0 := make([]float64, u.NumParameters())
	for _, optName := range []string{"nelder-mead", "lbfgs"} {
		drv, err := vqe.New(h, u, vqe.Options{Backend: svBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		var res vqe.Result
		if optName == "lbfgs" {
			res, err = drv.MinimizeLBFGS(context.Background(), x0, opt.LBFGSOptions{MaxIter: 2000}, vqe.ResilienceOptions{})
		} else {
			res, err = drv.Minimize(context.Background(), x0, opt.NelderMeadOptions{MaxIter: 2000}, vqe.ResilienceOptions{})
		}
		if err != nil {
			t.Fatalf("%s: %v", optName, err)
		}
		if math.Abs(res.Energy-fci) > 1e-4 {
			t.Errorf("%s: E = %v vs FCI %v", optName, res.Energy, fci)
		}
		if res.Stats.EnergyEvaluations == 0 {
			t.Error("no evaluations counted")
		}
	}
}

// TestVQEAlgorithmValidation: what the loop refuses before it ever asks a
// backend for anything.
func TestVQEAlgorithmValidation(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	u, _ := ansatz.NewUCCSD(4, 2)
	wide := pauli.NewOp().Add(pauli.MustParse("IIIIIZ"), 1)
	if _, err := vqe.New(wide, u, vqe.Options{Backend: svBackend{}}); !errors.Is(err, core.ErrQubitOutOfRange) {
		t.Errorf("wide observable: %v, want ErrQubitOutOfRange", err)
	}
	for _, mode := range []vqe.EnergyMode{vqe.Rotated, vqe.Sampled} {
		if _, err := vqe.New(h, u, vqe.Options{Mode: mode, Backend: svBackend{}}); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("mode %v on a backend: %v, want ErrInvalidArgument", mode, err)
		}
	}
}

// TestFaultDrillH2VQEOnCluster is the end-to-end fault drill: a full H2
// VQE on the multi-rank backend with a seeded fault injector behind
// every block exchange must converge to the same energy as the
// fault-free run, and the recovery telemetry must show the faults were
// actually hit and repaired.
func TestFaultDrillH2VQEOnCluster(t *testing.T) {
	fci := h2FCI(t)
	cleanRes := h2On(t, context.Background(), clusterBackend{ranks: 4})
	if math.Abs(cleanRes.Energy-fci) > 1e-4 {
		t.Fatalf("fault-free run off FCI: %v vs %v", cleanRes.Energy, fci)
	}

	telemetry.Enable()
	retriesBefore := telemetry.GetCounter("cluster.comm.retries").Value()
	opts := cluster.Options{
		Fault: resilience.NewFaultInjector(resilience.FaultConfig{
			Seed:        1234,
			DropProb:    0.1,
			CorruptProb: 0.1,
			MaxFaults:   500,
		}),
		Retry: resilience.RetryPolicy{MaxAttempts: 12, BaseDelay: 5 * time.Microsecond},
	}
	drillRes := h2On(t, context.Background(), clusterBackend{ranks: 4, opts: opts})
	// Every fault is repaired exactly (retry from the intact source), so
	// the faulted trajectory is the clean trajectory.
	if math.Abs(drillRes.Energy-cleanRes.Energy) > 1e-10 {
		t.Errorf("fault drill energy %v != clean %v", drillRes.Energy, cleanRes.Energy)
	}
	if opts.Fault.Injected() == 0 {
		t.Fatal("no faults injected; drill exercised nothing")
	}
	if got := telemetry.GetCounter("cluster.comm.retries").Value(); got <= retriesBefore {
		t.Errorf("no retries recorded (%d → %d) despite %d injected faults",
			retriesBefore, got, opts.Fault.Injected())
	}
}

// brokenCluster is a four-rank cluster whose links never deliver.
func brokenCluster(seed uint64) clusterBackend {
	return clusterBackend{ranks: 4, opts: cluster.Options{
		Fault: resilience.NewFaultInjector(resilience.FaultConfig{Seed: seed, DropProb: 1}),
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
	}}
}

// TestFallbackDegradesToSV: a cluster whose links never deliver must fall
// back to the single-node backend and still produce the answer — for one
// expectation and for a whole VQE loop.
func TestFallbackDegradesToSV(t *testing.T) {
	telemetry.Enable()
	fb := fallback{brokenCluster(5), svBackend{}}
	// 6-qubit GHZ: wide enough that the cluster keeps 4 ranks and must
	// exchange blocks (a 2-qubit circuit would clamp to 1 rank and never
	// touch the faulty links).
	ghz := circuit.New(6).H(0)
	for q := 0; q+1 < 6; q++ {
		ghz.CX(q, q+1)
	}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZZZZZ"), 1)

	activations := telemetry.GetCounter("xacc.fallback.activations")
	activationsBefore := activations.Value()
	e, err := fb.Expectation(context.Background(), ghz, obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("fallback ⟨Z⊗6⟩ = %v, want 1", e)
	}
	if got := activations.Value(); got <= activationsBefore {
		t.Error("fallback served the request without recording an activation")
	}

	// Under the loop every evaluation degrades, so the run is the
	// single-node run: same trajectory, same bits.
	activationsBefore = activations.Value()
	degraded := h2On(t, context.Background(), fb)
	direct := h2On(t, context.Background(), svBackend{})
	if degraded.Energy != direct.Energy || math.Abs(degraded.Energy-h2FCI(t)) > 1e-4 {
		t.Errorf("degraded VQE energy %v, single-node %v", degraded.Energy, direct.Energy)
	}
	if got := activations.Value() - activationsBefore; got < int64(degraded.Stats.EnergyEvaluations) {
		t.Errorf("%d activations for %d degraded evaluations", got, degraded.Stats.EnergyEvaluations)
	}
}

// TestFallbackChainExhaustion: when both members fail the caller gets the
// last cause, wrapped, and the exhaustion is counted.
func TestFallbackChainExhaustion(t *testing.T) {
	telemetry.Enable()
	exhausted := telemetry.GetCounter("xacc.fallback.exhausted")
	before := exhausted.Value()
	fb := fallback{brokenCluster(1), brokenCluster(2)}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZZZZZ"), 1)
	_, err := fb.Expectation(context.Background(), circuit.New(6).H(5), obs)
	if !errors.Is(err, resilience.ErrRetriesExhausted) {
		t.Fatalf("want wrapped ErrRetriesExhausted, got %v", err)
	}
	if exhausted.Value() <= before {
		t.Error("exhausted fallback not counted")
	}
}

// TestFallbackDoesNotOutliveDeadline: a canceled context must stop the
// chain walk — degrading to a slower backend after walltime expiry would
// defeat the budget.
func TestFallbackDoesNotOutliveDeadline(t *testing.T) {
	fb := fallback{svBackend{}, svBackend{}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs := pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
	if _, err := fb.Expectation(ctx, bellCircuit(), obs); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// cancelAfter wraps the state-vector adaptor and fires a cancel func
// after a fixed number of expectation calls — a deterministic stand-in
// for a walltime expiring mid-optimization.
type cancelAfter struct {
	svBackend
	calls, after int
	cancel       context.CancelFunc
}

func (a *cancelAfter) Expectation(_ context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	a.calls++
	if a.calls == a.after {
		a.cancel()
	}
	// Deliberately ignore ctx: the VQE loop's iteration-boundary check is
	// what must detect the cancellation.
	return a.svBackend.Expectation(context.Background(), prep, obs)
}

// TestVQEExecuteContextReturnsBestSoFar: when the context dies
// mid-optimization, the loop degrades gracefully — best energy so far,
// Interrupted flag, no error.
func TestVQEExecuteContextReturnsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := h2On(t, ctx, &cancelAfter{after: 25, cancel: cancel})
	if !res.Interrupted {
		t.Fatal("mid-run cancellation not flagged")
	}
	if math.IsNaN(res.Energy) || res.Energy > 0 {
		t.Errorf("unusable best-so-far energy %v", res.Energy)
	}
	if res.Stats.EnergyEvaluations >= 100 {
		t.Errorf("optimization kept running after cancel: %d evaluations", res.Stats.EnergyEvaluations)
	}
}

// tripping is the serial state-vector adaptor, except that trip sees
// every call's ordinal first and may fail or panic.
type tripping struct {
	calls int
	trip  func(call int) error
}

func (b *tripping) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	b.calls++
	if err := b.trip(b.calls); err != nil {
		return 0, err
	}
	return svBackend{1}.Expectation(ctx, prep, obs)
}

// swapBackend replaces the named row's adaptor for the rest of the test.
func swapBackend(t *testing.T, name string, b vqe.Backend) {
	t.Helper()
	i := slices.IndexFunc(backends, func(r backendRow) bool { return r.name == name })
	saved := backends[i]
	backends[i].build = func(BackendSpec) vqe.Backend { return b }
	t.Cleanup(func() { backends[i] = saved })
}

// TestBackendErrorsCrossRun: what a backend raises mid-loop leaves Run as
// it was raised — an error with its chain intact (the daemon retries on
// resilience.ErrRetriesExhausted and nothing else), a panic unrecovered
// (the daemon's per-point isolation is the only recover).
func TestBackendErrorsCrossRun(t *testing.T) {
	spec := RunSpec{Optimizer: OptimizerSpec{Method: "nelder-mead", MaxIter: 60},
		Backend: BackendSpec{Accelerator: "nwq-sv-serial"}}

	swapBackend(t, "nwq-sv-serial", &tripping{trip: func(call int) error {
		if call == 5 {
			return fmt.Errorf("rank 2 unreachable: %w", resilience.ErrRetriesExhausted)
		}
		return nil
	}})
	if _, err := Run(context.Background(), &spec, RunOptions{}); !errors.Is(err, resilience.ErrRetriesExhausted) ||
		!strings.Contains(err.Error(), "rank 2 unreachable") {
		t.Errorf("Run: %v, want the backend's error with ErrRetriesExhausted in its chain", err)
	}

	const fuse = "cluster backend blew fuse 7"
	swapBackend(t, "nwq-sv-serial", &tripping{trip: func(call int) error {
		if call == 5 {
			panic(fuse)
		}
		return nil
	}})
	defer func() {
		if r := recover(); !reflect.DeepEqual(r, fuse) {
			t.Errorf("recovered %v, want the backend's own panic value", r)
		}
	}()
	_, err := Run(context.Background(), &spec, RunOptions{})
	t.Errorf("Run returned (%v) through a backend panic", err)
}

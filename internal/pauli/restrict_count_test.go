package pauli_test

import (
	"testing"

	"repro/internal/chem"
	"repro/internal/pauli"
	"repro/internal/telemetry"
)

// TestRestrictWaterCounts is an exact count gate on restricting 12-qubit
// water's H to its 495-state sector: the couplings a(i) evaluated, the
// (row, group) pairs visited, and the ranks computed in full. A scan of
// every group from every row, ranking each source in full, evaluated
// 60 735 couplings (50 535 kept sources, 7 650 leak checks and 2 550
// sealing patterns), visited all 495 × 286 = 141 570 pairs and ranked
// 50 535 states. Now a row visits the groups that keep it in the sector
// and, of those that do not, the 30 unsealed ones: 117.5 of 286 on
// average, the same 50 535 + 7 650 evaluations; the 255 memoized
// groups' couplings are evaluated once per pattern and parity; and every
// source's rank steps from its row's.
func TestRestrictWaterCounts(t *testing.T) {
	plan := pauli.NewPlan(chem.QubitHamiltonian(chem.WaterLike()))
	sector, err := pauli.Sector(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	telemetry.Reset()
	m, err := plan.Restrict(sector)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 37935 {
		t.Fatalf("%d coefficients, want 37 935", m.NNZ())
	}
	counters := telemetry.Capture().Counters
	for name, want := range map[string]int64{
		"pauli.restrict.couplings": 20685,
		"pauli.restrict.visits":    58185,
		"pauli.sector.ranks":       0,
	} {
		if got := counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

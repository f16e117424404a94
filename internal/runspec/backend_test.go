package runspec

import (
	"context"
	"math"
	"testing"
)

// TestFusionInertOnSerialBackend: "fusion" selects how the driver's own
// state vector executes a circuit ansatz; a named backend runs the
// circuit it is handed with its own executor, so a spec that sets fusion
// on nwq-sv-serial lands on the same energy and parameter bits as one
// that does not.
func TestFusionInertOnSerialBackend(t *testing.T) {
	for _, base := range []RunSpec{
		{Optimizer: OptimizerSpec{Method: "lbfgs"}},
		{Ansatz: AnsatzSpec{Kind: "hea", Layers: 1},
			Optimizer: OptimizerSpec{Method: "nelder-mead", MaxIter: 40}},
	} {
		base.Backend = BackendSpec{Accelerator: "nwq-sv-serial"}
		fused := base
		fused.Fusion = true
		plain, err := Run(context.Background(), &base, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), &fused, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Energy) != math.Float64bits(plain.Energy) {
			t.Errorf("%s: fusion moved the energy: %x vs %x", base.Ansatz.Kind,
				math.Float64bits(got.Energy), math.Float64bits(plain.Energy))
		}
		if len(got.Params) != len(plain.Params) {
			t.Fatalf("%s: %d vs %d parameters", base.Ansatz.Kind, len(got.Params), len(plain.Params))
		}
		for i := range got.Params {
			if math.Float64bits(got.Params[i]) != math.Float64bits(plain.Params[i]) {
				t.Errorf("%s: fusion moved θ[%d]: %v vs %v", base.Ansatz.Kind, i, got.Params[i], plain.Params[i])
			}
		}
	}
}

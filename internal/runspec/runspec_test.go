package runspec

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestHashGolden pins the canonical hash of representative specs. These
// values are load-bearing: the daemon's result cache and any on-disk
// artifacts key on them, so an accidental change to the canonical form or
// the schema must show up here (and be accompanied by a HashPrefix bump).
func TestHashGolden(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"default-h2", RunSpec{},
			"rs1:a3534e399fb805bfad5c4770887b94c4e2717a6fed61aa746236cc7db9deae12"},
		{"water-adapt", RunSpec{Molecule: MoleculeSpec{Kind: "water"}, Algorithm: "adapt"},
			"rs1:a00e7fb19d99c400bd79006711e529e73bfcb38a33a22fc3877cbf8a39d645dc"},
		{"hubbard-sampled", RunSpec{Molecule: MoleculeSpec{Kind: "hubbard", Sites: 3, Electrons: 2}, Mode: "sampled"},
			"rs1:fddaa889349052ef36f59bbbf028eddb969b6a9e8d3c24a807b4e50575aaac91"},
		{"h2-qpe", RunSpec{Algorithm: "qpe"},
			"rs1:f1e542763fdc6d9f51e4bca81f14f7cd568d1ffe84d888c721057e0af85915d1"},
		{"h2-cluster", RunSpec{Backend: BackendSpec{Accelerator: "nwq-cluster", Ranks: 8}},
			"rs1:714858658483561634d11d9c8e6c8edc8b168c2f57bc9dd9f8711a49215d5874"},
	}
	for _, tc := range cases {
		if got := tc.spec.Hash(); got != tc.want {
			t.Errorf("%s: hash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestHashNormalization: specs that differ only in fields the canonical
// form erases must collide, and specs that differ in meaningful fields
// must not.
func TestHashNormalization(t *testing.T) {
	base := RunSpec{}
	same := []RunSpec{
		{Molecule: MoleculeSpec{Kind: "H2"}},                     // case-folded kind
		{Molecule: MoleculeSpec{Kind: "h2", Sites: 9, Seed: 77}}, // stale hubbard/synthetic params
		{Algorithm: "vqe", Mode: "direct", Encoding: "jw"},       // explicit defaults
		{Shots: 4096},          // shots inert in direct mode
		{DisableCaching: true}, // caching inert in direct mode
		{Backend: BackendSpec{Accelerator: "nwq-sv", Ranks: 16}},    // ranks inert off-cluster
		{Adapt: AdaptSpec{MaxIterations: 99}},                       // adapt section inert under vqe
		{QPE: QPESpec{Ancillas: 3}},                                 // qpe section inert under vqe
		{Resilience: ResilienceSpec{Walltime: "30", Resume: false}}, // lifecycle only
	}
	for i, s := range same {
		if s.Hash() != base.Hash() {
			t.Errorf("case %d: expected hash collision with default spec, got %s", i, s.Hash())
		}
	}
	different := []RunSpec{
		{Molecule: MoleculeSpec{Kind: "water"}},
		{Encoding: "bk"},
		{Mode: "sampled"},
		{Mode: "sampled", Shots: 16},
		{Downfold: 2},
		{Fusion: true},
		{Optimizer: OptimizerSpec{Method: "nelder-mead"}},
		{Backend: BackendSpec{Accelerator: "nwq-cluster"}},
		{Backend: BackendSpec{Workers: 3}},
		{Algorithm: "adapt"},
		{Algorithm: "qpe"},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, s := range different {
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("case %d: unexpected hash collision with case %d", i, prev)
		}
		seen[h] = i
	}
}

// TestJSONRoundTrip: a defaulted spec must survive marshal → Parse with
// its hash (and every field) intact.
func TestJSONRoundTrip(t *testing.T) {
	specs := []RunSpec{
		{},
		{Molecule: MoleculeSpec{Kind: "hubbard", Sites: 3, Hopping: 0.8, Repulsion: 2.5, Electrons: 2}},
		{Molecule: MoleculeSpec{Kind: "h2-distance", Distance: 1.2}, Mode: "sampled", Shots: 1024},
		{Algorithm: "adapt", Adapt: AdaptSpec{MaxIterations: 5}},
		{Algorithm: "qpe", QPE: QPESpec{Ancillas: 5, TrotterSteps: 2}},
		{
			Backend:    BackendSpec{Accelerator: "nwq-cluster", Ranks: 4, Fault: &FaultSpec{Seed: 9, DropProb: 0.1}},
			Resilience: ResilienceSpec{CheckpointPath: "x.ckpt", CheckpointEvery: 5, Walltime: "00:30"},
		},
	}
	for i, s := range specs {
		s.ApplyDefaults()
		data, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		if back.Hash() != s.Hash() {
			t.Errorf("case %d: hash changed across round-trip: %s → %s", i, s.Hash(), back.Hash())
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if string(again) != string(data) {
			t.Errorf("case %d: JSON not stable across round-trip:\n  %s\n  %s", i, data, again)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"optimiser": {"method": "lbfgs"}}`))
	if !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("expected ErrInvalidArgument for unknown field, got %v", err)
	}
	if _, err := Parse([]byte(`{}{}`)); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("expected ErrInvalidArgument for trailing data, got %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"bad molecule", RunSpec{Molecule: MoleculeSpec{Kind: "benzene"}}},
		{"h2-distance without distance", RunSpec{Molecule: MoleculeSpec{Kind: "h2-distance"}}},
		{"bad encoding", RunSpec{Encoding: "ternary"}},
		{"bad algorithm", RunSpec{Algorithm: "vqa"}},
		{"bad mode", RunSpec{Mode: "estimated"}},
		{"bad ansatz", RunSpec{Ansatz: AnsatzSpec{Kind: "qaoa"}}},
		{"bad optimizer", RunSpec{Optimizer: OptimizerSpec{Method: "adam"}}},
		{"hea with lbfgs", RunSpec{Ansatz: AnsatzSpec{Kind: "hea"}}},
		{"negative shots", RunSpec{Shots: -1}},
		{"negative downfold", RunSpec{Downfold: -1}},
		{"negative workers", RunSpec{Backend: BackendSpec{Workers: -1}}},
		{"resume without checkpoint", RunSpec{Resilience: ResilienceSpec{Resume: true}}},
		{"unknown accelerator", RunSpec{Backend: BackendSpec{Accelerator: "bogus"}}},
		{"rotated off nwq-sv", RunSpec{Mode: "rotated", Backend: BackendSpec{Accelerator: "nwq-cluster"}}},
		{"sampled off nwq-sv", RunSpec{Mode: "sampled", Backend: BackendSpec{Accelerator: "nwq-dm"}}},
		{"adapt off nwq-sv", RunSpec{Algorithm: "adapt", Backend: BackendSpec{Accelerator: "nwq-cluster"}}},
		{"adapt on unknown accelerator", RunSpec{Algorithm: "adapt", Backend: BackendSpec{Accelerator: "bogus"}}},
		{"qpe off nwq-sv", RunSpec{Algorithm: "qpe", Backend: BackendSpec{Accelerator: "nwq-sv-serial"}}},
		{"h2 adapt bk", RunSpec{Algorithm: "adapt", Encoding: "bk"}},
		{"h2 adapt parity", RunSpec{Algorithm: "adapt", Encoding: "parity"}},
		{"water adapt bk", RunSpec{Molecule: MoleculeSpec{Kind: "water"}, Algorithm: "adapt", Encoding: "bk"}},
		{"h2 qpe bk", RunSpec{Algorithm: "qpe", Encoding: "bk"}},
		{"h2 qpe parity", RunSpec{Algorithm: "qpe", Encoding: "parity"}},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("%s: expected ErrInvalidArgument, got %v", tc.name, err)
		}
	}
	ok := RunSpec{Ansatz: AnsatzSpec{Kind: "hea"}, Optimizer: OptimizerSpec{Method: "nelder-mead"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("hea + nelder-mead should validate, got %v", err)
	}
	for _, acc := range []string{"nwq-sv", "nwq-sv-serial", "nwq-cluster", "nwq-dm", "nwq-resilient"} {
		ok := RunSpec{Backend: BackendSpec{Accelerator: acc}}
		if err := ok.Validate(); err != nil {
			t.Errorf("direct-mode vqe on %s should validate, got %v", acc, err)
		}
	}
}

func TestApplyDefaults(t *testing.T) {
	s := RunSpec{Algorithm: "ADAPT", Molecule: MoleculeSpec{Kind: " Hubbard "}}
	s.ApplyDefaults()
	if s.Molecule.Kind != "hubbard" || s.Molecule.Sites != 2 || s.Molecule.Electrons != 2 {
		t.Errorf("hubbard defaults not applied: %+v", s.Molecule)
	}
	if s.Algorithm != AlgorithmAdapt || s.Adapt.MaxIterations != 25 || s.Adapt.GradientTol != 1e-4 {
		t.Errorf("adapt defaults not applied: alg=%q %+v", s.Algorithm, s.Adapt)
	}
	if s.Encoding != "jw" || s.Mode != "direct" || s.Optimizer.Method != "lbfgs" {
		t.Errorf("base defaults not applied: %+v", s)
	}
	if s.Backend.Accelerator != "nwq-sv" {
		t.Errorf("backend default not applied: %+v", s.Backend)
	}
}

// TestHashPrefixPinned: the version prefix is part of every cache key;
// renaming it silently would alias old artifacts.
func TestHashPrefixPinned(t *testing.T) {
	if HashPrefix != "rs1" {
		t.Fatalf("HashPrefix changed to %q — bump deliberately and update golden hashes", HashPrefix)
	}
	if !strings.HasPrefix(RunSpec{}.Hash(), "rs1:") {
		t.Fatalf("Hash() does not carry the version prefix: %s", RunSpec{}.Hash())
	}
}

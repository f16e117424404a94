package xacc

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func TestRegistryRegisterAndNew(t *testing.T) {
	r := NewRegistry()
	err := r.Register("toy", Entry{
		Description: "test backend",
		Factory: func(o AcceleratorOptions) Accelerator {
			return &SVAccelerator{Workers: o.Workers}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.New("toy", AcceleratorOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sv, ok := acc.(*SVAccelerator); !ok || sv.Workers != 2 {
		t.Errorf("options not threaded into the factory: %#v", acc)
	}
}

func TestRegistryRejectsBadEntries(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", Entry{Factory: func(AcceleratorOptions) Accelerator { return nil }}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("nameless entry accepted: %v", err)
	}
	if err := r.Register("nofactory", Entry{}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("factoryless entry accepted: %v", err)
	}
	if _, err := r.New("missing", AcceleratorOptions{}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("unknown lookup should fail with ErrInvalidArgument, got %v", err)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(n, Entry{Factory: func(AcceleratorOptions) Accelerator { return &SVAccelerator{} }}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestDefaultRegistryCatalog(t *testing.T) {
	// The built-in backend set is the daemon's capabilities contract.
	want := map[string]bool{
		"nwq-sv": false, "nwq-sv-serial": false, "nwq-cluster": false,
		"nwq-dm": false, "nwq-resilient": false,
	}
	for _, info := range DefaultRegistry.List() {
		if _, known := want[info.Name]; known {
			want[info.Name] = true
		}
		if info.QubitLimit <= 0 {
			t.Errorf("%s: QubitLimit = %d, want > 0", info.Name, info.QubitLimit)
		}
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("built-in backend %q missing from List()", name)
		}
	}
}

func TestClusterOptionsRespected(t *testing.T) {
	acc, err := DefaultRegistry.New("nwq-cluster", AcceleratorOptions{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := acc.(*ClusterAccelerator); !ok || cl.Ranks != 8 {
		t.Errorf("rank option not honored: %#v", acc)
	}
	// Rank default applies when unspecified.
	acc, err = DefaultRegistry.New("nwq-cluster", AcceleratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := acc.(*ClusterAccelerator); !ok || cl.Ranks != 4 {
		t.Errorf("default rank count wrong: %#v", acc)
	}
}

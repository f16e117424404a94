package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
)

// TestCapabilitiesAcceleratorsPinned pins the accelerators array of
// GET /v1/capabilities byte for byte, whitespace aside: the backend names
// a client may put in backend.accelerator, their descriptions and qubit
// limits, in order. It runs in this package's own test binary, where
// nothing but the built-in backends exists.
func TestCapabilitiesAcceleratorsPinned(t *testing.T) {
	const want = `[{"name":"nwq-cluster","description":"simulated multi-rank cluster with verified communication","qubit_limit":34},` +
		`{"name":"nwq-dm","description":"density-matrix engine with optional noise","qubit_limit":12},` +
		`{"name":"nwq-resilient","description":"cluster backend degrading to single-node on persistent faults","qubit_limit":34},` +
		`{"name":"nwq-sv","description":"single-node state-vector engine (goroutine-parallel)","qubit_limit":30},` +
		`{"name":"nwq-sv-serial","description":"single-node state-vector engine, forced serial","qubit_limit":30}]`

	srv, err := server.New(server.Config{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var caps struct {
		Accelerators json.RawMessage `json:"accelerators"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, caps.Accelerators); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("accelerators:\n%s\nwant:\n%s", got.String(), want)
	}
}

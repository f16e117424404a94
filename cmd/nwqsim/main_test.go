package main

// The command end to end: TestMain re-executes the test binary as nwqsim
// when nwqsimMainEnv is set, so each case parses its own flags and exits
// with its own status, exactly as the installed command would.

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

const nwqsimMainEnv = "NWQSIM_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(nwqsimMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	bellQASM = "qreg q[2]\nh q[0]\ncx q[0], q[1]\n"
	ghz4QASM = "qreg q[4]\nh q[0]\ncx q[0], q[1]\ncx q[1], q[2]\ncx q[2], q[3]\n"
)

// nwqsim runs the command on a circuit read from stdin and returns its
// stdout and stderr.
func nwqsim(t *testing.T, circuit string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(args, "-")...)
	cmd.Env = append(os.Environ(), nwqsimMainEnv+"=1")
	cmd.Stdin = strings.NewReader(circuit)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// pinnedLines keeps the lines of a run that must not move: the backend
// line, every outcome line (probability and counts) and the fault
// summary. The circuit line is the parser's and the timing line is wall
// clock.
func pinnedLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "backend:") || strings.HasPrefix(line, "|") ||
			strings.HasPrefix(line, "faults injected:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestBackendsListing pins -backends byte for byte: the names, qubit
// limits, descriptions and order of every backend a spec may name.
func TestBackendsListing(t *testing.T) {
	const want = `nwq-cluster      ≤34 qubits  simulated multi-rank cluster with verified communication
nwq-dm           ≤12 qubits  density-matrix engine with optional noise
nwq-resilient    ≤34 qubits  cluster backend degrading to single-node on persistent faults
nwq-sv           ≤30 qubits  single-node state-vector engine (goroutine-parallel)
nwq-sv-serial    ≤30 qubits  single-node state-vector engine, forced serial
`
	cmd := exec.Command(os.Args[0], "-backends")
	cmd.Env = append(os.Environ(), nwqsimMainEnv+"=1")
	got, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("-backends:\n%s\nwant:\n%s", got, want)
	}
}

// bellBackends is every backend with the label its run prints: nwq-sv-serial
// is the state-vector engine on one worker, nwq-resilient its fallback chain.
var bellBackends = []struct{ backend, label string }{
	{"nwq-sv", "nwq-sv"},
	{"nwq-sv-serial", "nwq-sv"},
	{"nwq-cluster", "nwq-cluster"},
	{"nwq-dm", "nwq-dm"},
	{"nwq-resilient", "fallback(nwq-cluster→nwq-sv)"},
}

// TestBellOnEveryBackend runs a noiseless Bell pair through every backend
// and pins each outcome's probability and its share of 1000 shots. Every
// backend samples the same seeded sampler, so the counts agree across
// backends; on the cluster the two qubits clamp four ranks to one.
func TestBellOnEveryBackend(t *testing.T) {
	const clean = "|00⟩  p = 0.500000   counts = 505\n" +
		"|11⟩  p = 0.500000   counts = 495"
	for _, tc := range bellBackends {
		out, stderr, err := nwqsim(t, bellQASM, "-backend", tc.backend, "-shots", "1000")
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.backend, err, stderr)
		}
		if got, want := pinnedLines(out), "backend: "+tc.label+"\n"+clean; got != want {
			t.Errorf("%s:\n%s\nwant:\n%s", tc.backend, got, want)
		}
	}
}

// TestNoisyBellOnEveryBackend: with -noise every backend runs the density
// matrix, whose depolarizing noise leaks probability into the odd-parity
// outcomes; each outcome's probability and share of 1000 shots is pinned.
func TestNoisyBellOnEveryBackend(t *testing.T) {
	const noisy = "backend: nwq-dm\n" +
		"|00⟩  p = 0.474044   counts = 492\n" +
		"|11⟩  p = 0.474044   counts = 478\n" +
		"|01⟩  p = 0.025956   counts = 13\n" +
		"|10⟩  p = 0.025956   counts = 17"
	for _, tc := range bellBackends {
		out, stderr, err := nwqsim(t, bellQASM, "-backend", tc.backend, "-shots", "1000", "-noise", "0.02")
		if err != nil {
			t.Fatalf("%s -noise: %v\n%s", tc.backend, err, stderr)
		}
		if got := pinnedLines(out); got != noisy {
			t.Errorf("%s -noise:\n%s\nwant:\n%s", tc.backend, got, noisy)
		}
	}
}

// TestClusterFaultDrill drives the cluster's seeded fault injector through
// a four-rank GHZ state: recoverable drops leave the distribution as it
// was, drops that exhaust the retries fail nwq-cluster and send
// nwq-resilient to the single-node engine, with the same distribution.
func TestClusterFaultDrill(t *testing.T) {
	const ghz = "|0000⟩  p = 0.500000   counts = 265\n" +
		"|1111⟩  p = 0.500000   counts = 235"
	for _, tc := range []struct{ backend, drop, want string }{
		{"nwq-cluster", "0.3", "backend: nwq-cluster\n" + ghz +
			"\nfaults injected: 11 (map[drop:11]) — all recovered"},
		{"nwq-resilient", "0.3", "backend: fallback(nwq-cluster→nwq-sv)\n" + ghz +
			"\nfaults injected: 11 (map[drop:11]) — all recovered"},
		{"nwq-resilient", "1", "backend: fallback(nwq-cluster→nwq-sv)\n" + ghz +
			"\nfaults injected: 8 (map[drop:8]) — all recovered"},
	} {
		out, stderr, err := nwqsim(t, ghz4QASM, "-backend", tc.backend, "-fault-drop", tc.drop, "-shots", "500")
		if err != nil {
			t.Fatalf("%s drop %s: %v\n%s", tc.backend, tc.drop, err, stderr)
		}
		if got := pinnedLines(out); got != tc.want {
			t.Errorf("%s drop %s:\n%s\nwant:\n%s", tc.backend, tc.drop, got, tc.want)
		}
	}

	_, stderr, err := nwqsim(t, ghz4QASM, "-backend", "nwq-cluster", "-fault-drop", "1", "-shots", "500")
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(stderr, "retries exhausted") {
		t.Errorf("nwq-cluster with every transfer dropped: %v, stderr %q; want exit 1 naming the exhausted retries", err, stderr)
	}
}

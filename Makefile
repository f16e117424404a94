GO ?= go

# staticcheck is fetched on demand so the repo keeps zero dependencies; the
# version is pinned so local and CI lint agree.
STATICCHECK_VERSION = 2025.1

# govulncheck is pinned for the same reason; it needs network access, so
# the vuln target degrades to a warning when offline (hard failure in CI).
GOVULNCHECK_VERSION = v1.1.4

# Coverage floor for the telemetry package (CI enforces the same number).
TELEMETRY_COVER_MIN = 60

.PHONY: all build test examples loc bench-test bench-run vet vqelint lint-baseline lint vuln race fuzz-smoke bench bench-smoke chaos chaos-tests vqed-chaos vqed-smoke load-smoke sweep-smoke cover figures check ci

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples builds each examples/* program and runs it under a timeout,
# failing on a non-zero exit: `go build ./...` compiles them, but only this
# target runs them. A failing example's output is printed; a passing one's
# is kept in out/examples/.
EXAMPLES_TIMEOUT = 120s
examples:
	@mkdir -p bin/examples out/examples
	@for d in examples/*/; do \
		name=$$(basename $$d); \
		$(GO) build -o bin/examples/$$name ./$$d || exit 1; \
		if timeout $(EXAMPLES_TIMEOUT) ./bin/examples/$$name > out/examples/$$name.log 2>&1; then \
			echo "examples: $$name ok"; \
		else \
			status=$$?; cat out/examples/$$name.log; \
			echo "examples: $$name exited $$status" >&2; exit 1; \
		fi; \
	done

# loc prints the size every simplicity PR and ROADMAP re-anchor quotes:
# non-test Go lines outside bench/, in total and per directory. Not a gate.
loc:
	@for d in internal/* cmd/* examples; do \
		printf '%6d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d  %s\n' $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) "."
	@printf '%6d  %s\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l) "total (non-test, non-bench)"

# bench-test vets and tests the benchmark module. bench/ is its own Go
# module (see bench/README.md), so build/test/vet above never compile
# bench/probe or bench/vqebench — which import internal/server,
# internal/server/journal and the other probed layers directly.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-run runs every workload of BENCHMARK.json for a few seconds, built
# and driven the way the benchmark is, and fails unless each run's final
# JSON line reports "correct":true and "failed":0 — the local check that a
# change still passes its benchmark, before anyone measures it.
BENCH_WORKLOADS = adapt12 wide20 serve_mix serve_sweep
bench-run:
	@for w in $(BENCH_WORKLOADS); do \
		line=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1) || exit 1; \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-run: $$w did not report \"correct\":true and \"failed\":0" >&2; exit 1 ;; \
		esac; \
	done

vet:
	$(GO) vet ./...

# vqelint runs the repo's own analyzer suite (internal/analysis) twice:
# through the go vet driver (so _test.go files are checked too) and
# standalone against the committed baseline, which also reports stale
# //vqelint:ignore directives. Self-contained: builds from this module,
# no network needed.
vqelint:
	$(GO) build -o bin/vqelint ./cmd/vqelint
	$(GO) vet -vettool=$$(pwd)/bin/vqelint ./...
	./bin/vqelint -baseline lint_baseline.json -unused-ignores ./...

# lint-baseline regenerates lint_baseline.json from the current findings.
# Use it when a PR deliberately accepts a pre-existing finding; new code
# should fix or //vqelint:ignore instead of growing the baseline.
lint-baseline:
	$(GO) build -o bin/vqelint ./cmd/vqelint
	./bin/vqelint -update-baseline ./...

# lint checks gofmt, then runs go vet, the vqelint suite, and staticcheck.
# Fetching staticcheck needs network access; without it (air-gapped dev
# boxes) the target degrades to a warning locally but stays a hard failure
# in CI.
lint: vet vqelint
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:" >&2; gofmt -l . >&2; exit 1; }
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; then \
		echo "staticcheck: ok"; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck failed" >&2; exit 1; \
	else \
		echo "staticcheck unavailable or failed (offline?) — skipping locally" >&2; \
	fi

# vuln scans the module against the Go vulnerability database. Needs
# network access; degrades to a warning offline, hard failure in CI.
vuln:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; then \
		echo "govulncheck: ok"; \
	elif [ -n "$$CI" ]; then \
		echo "govulncheck failed" >&2; exit 1; \
	else \
		echo "govulncheck unavailable or failed (offline?) — skipping locally" >&2; \
	fi

# race runs the whole module under the race detector, then re-runs the
# load harness uncached: its closed/open-loop tests are the heaviest
# goroutine churn in the repo and must never ride a stale test cache.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/load/...

# fuzz-smoke runs each fuzz target for a fixed FUZZTIME on two workers,
# starting from its committed corpus (testdata/fuzz/<target>/, which a
# plain `go test` replays). A failing input is written there; commit it
# with the fix. FuzzPlanEvaluate holds Plan.Evaluate to its references
# on random observables and states up to 16 qubits.
FUZZTIME = 30s
fuzz-smoke:
	$(GO) test ./internal/pauli -run '^$$' -fuzz '^FuzzPlanEvaluate$$' -fuzztime $(FUZZTIME) -parallel 2

# chaos covers both resilience layers: the in-process fault/crash-resume
# test suite (chaos-tests) and the kill-the-daemon recovery drill
# (vqed-chaos). CI runs them as separate jobs; locally `make chaos` is
# the whole story.
chaos: chaos-tests vqed-chaos

# chaos-tests is the resilience smoke: the fault drills (seeded injectors
# behind every cluster transfer), the crash/resume equivalence properties
# (in process and through a named backend), the backend-failure paths of
# the VQE loop, and the watchdog recovery paths, all under the race
# detector with a tight deadline so a hung retry loop fails fast instead
# of stalling CI. `go test -run` succeeds when the pattern matches nothing,
# so a drill that moves package would silently empty the gate: the target
# fails if any listed package reports no tests to run.
CHAOS_PKGS = ./internal/cluster/ ./internal/resilience/ ./internal/vqe/ ./internal/runspec/
chaos-tests:
	@out=$$($(GO) test -race -timeout 5m \
		-run 'FaultDrill|Watchdog|CrashResume|Fallback|Walltime|Deadline|Checkpoint|StatsRace|BackendFailure|BackendPanic' \
		$(CHAOS_PKGS) 2>&1); status=$$?; echo "$$out"; \
	if echo "$$out" | grep -q 'no tests to run'; then \
		echo "chaos-tests: a listed package matched no test; fix the pattern or CHAOS_PKGS" >&2; exit 1; \
	fi; exit $$status

# vqed-chaos is the kill-the-daemon drill: vqeload drives closed-loop load
# with worker panics/stalls injected while the script SIGKILLs and
# restarts vqed three times on the same spool and port. The gate requires
# zero lost jobs, zero duplicate ids, and energies bit-equal to
# uninterrupted control runs — i.e. the write-ahead journal actually
# makes the daemon crash-safe. Writes out/chaos_report.json + out/journal.wal.
vqed-chaos:
	$(GO) build -o bin/vqed ./cmd/vqed
	$(GO) build -o bin/vqeload ./cmd/vqeload
	VQED_BIN=bin/vqed VQELOAD_BIN=bin/vqeload sh scripts/vqed_chaos.sh

# vqed-smoke exercises the job daemon end to end over real HTTP: submit
# H2, poll to done, assert the FCI energy, hit the result cache with a
# duplicate spec, and SIGTERM into a clean drain — all race-instrumented.
vqed-smoke:
	$(GO) build -race -o bin/vqed ./cmd/vqed
	VQED_BIN=bin/vqed sh scripts/vqed_smoke.sh

# load-smoke is the serving latency gate: boot vqed on a free port, drive
# it with a closed-loop vqeload run over the smoke mix, and fail the build
# if end-to-end p99 exceeds LOAD_FAIL_P99 (2s) or SLO attainment drops
# below LOAD_MIN_SLO (0.95). Writes out/load_report.json.
load-smoke:
	$(GO) build -o bin/vqed ./cmd/vqed
	$(GO) build -o bin/vqeload ./cmd/vqeload
	VQED_BIN=bin/vqed VQELOAD_BIN=bin/vqeload sh scripts/vqeload_smoke.sh

# sweep-smoke is the sweep-family durability gate: submit a dense H2 bond
# scan to /v1/sweeps, watch it with `vqeload sweep -assert-order` (done
# points must always form a prefix of the value-ascending execution
# order), SIGKILL the daemon mid-curve, restart it on the same spool, and
# require the family to resume with zero lost or duplicated points.
# Writes the final curve to out/sweep_curve.json.
sweep-smoke:
	$(GO) build -o bin/vqed ./cmd/vqed
	$(GO) build -o bin/vqeload ./cmd/vqeload
	VQED_BIN=bin/vqed VQELOAD_BIN=bin/vqeload sh scripts/vqed_sweep_smoke.sh

bench:
	$(GO) test -bench BenchmarkBatchedExpectation -benchtime 1x -run ^$$ .

# bench-smoke is the CI performance gate: the batched expectation engine
# must stay at least 2x faster than per-term sweeps, and the fusion figure
# and the telemetry overhead benchmark must run clean. The fusion figure
# prints its speedup but no longer gates on it: the ratio read 1.03–1.76 on
# unchanged code, which is the host, not the executor. Writes
# out/run_report.json.
bench-smoke: bench
	$(GO) test -bench BenchmarkTelemetryOverhead -benchtime 1x -run ^$$ .
	$(GO) run ./cmd/benchfigs -fig expect -fast -metrics -fail-below 2
	$(GO) run ./cmd/benchfigs -fig fusion -fast -metrics

# cover reports total coverage and enforces the telemetry floor.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@pct=$$($(GO) test -cover ./internal/telemetry/ | awk '{for (i=1;i<=NF;i++) if ($$i=="coverage:") {sub(/%$$/,"",$$(i+1)); print $$(i+1)}}'); \
	echo "internal/telemetry coverage: $$pct%"; \
	awk -v p="$$pct" -v min=$(TELEMETRY_COVER_MIN) 'BEGIN { exit !(p+0 >= min) }' || \
		{ echo "internal/telemetry coverage $$pct% below $(TELEMETRY_COVER_MIN)%" >&2; exit 1; }

figures:
	$(GO) run ./cmd/benchfigs -fig all -fast

check: build vet test race bench figures

# ci mirrors the GitHub Actions workflow jobs (test, examples, bench-test,
# bench-run, lint, vqelint, vuln, fuzz-smoke, coverage, bench-smoke,
# chaos-smoke, chaos-recovery, vqed-smoke, load-smoke, sweep-smoke) so
# `make ci` locally means green CI.
ci: build lint vuln test examples bench-test bench-run race fuzz-smoke cover bench-smoke chaos vqed-smoke load-smoke sweep-smoke

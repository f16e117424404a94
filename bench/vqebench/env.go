package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/kernel/tuning"
)

// benchProcs is the core count every workload is sized for.
const benchProcs = 2

// buildDaemon compiles cmd/vqed from the checkout into the benchmark's
// build directory. The Go build cache makes the second call a no-op.
func buildDaemon(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "bin", "vqed")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/vqed")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/vqed: %v\n%s", err, msg)
	}
	return out, nil
}

// requireDefaultTuning refuses to measure with anything but the
// compiled-in kernel thresholds: a calibrated profile changes which kernel
// runs, so numbers taken under it compare with nothing.
func requireDefaultTuning() error {
	if src := tuning.Source(); src != "default" {
		return fmt.Errorf("kernel tuning source is %q; the benchmark runs on defaults only", src)
	}
	if tuning.Current() != tuning.Defaults() {
		return errors.New("kernel tuning differs from the compiled-in defaults")
	}
	return nil
}

// header records what makes two sets of numbers comparable.
func header(root string, seed uint64, seconds float64) map[string]any {
	h := map[string]any{
		"commit":       gitCommit(root),
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu":          cpuModel(),
		"cache_l2":     cacheSize(2),
		"cache_l3":     cacheSize(3),
		"tuning":       tuning.Snapshot(),
		"daemon_flags": strings.Join(daemonFlags, " "),
		"seed":         seed,
		"seconds":      seconds,
	}
	return h
}

func headerLine(h map[string]any) string {
	b, _ := json.Marshal(h)
	return string(b)
}

// gitCommit is the checkout's commit, or "unknown" outside a git
// repository (the acceptance driver runs from an export).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reports cpu0's cache of the given level as sysfs prints it.
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) == fmt.Sprint(level) {
			if size, err := os.ReadFile(dir + "size"); err == nil {
				return strings.TrimSpace(string(size))
			}
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

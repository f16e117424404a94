package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/probe"
)

// daemonFlags pins the daemon to the 2-core sizing every number in this
// benchmark was taken at. No -calibrate: default tuning only.
var daemonFlags = []string{"-jobs", "2", "-workers", "2", "-queue", "64", "-cache", "256"}

// daemon is one running vqed: a child process, or — in tests — a server
// inside the test binary (cmd is nil then and halt stops it).
type daemon struct {
	cmd   *exec.Cmd
	base  string
	spool string
	// bootMs is spawn → first 200 from /readyz.
	bootMs float64
	logs   sync.WaitGroup
	halt   func()
}

// pid is the process doing the daemon's work.
func (d *daemon) pid() int {
	if d.cmd == nil {
		return os.Getpid()
	}
	return d.cmd.Process.Pid
}

// children tracks every live child so a signal handler or a failed check
// can reap them all.
var children struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func killAllChildren() {
	children.Lock()
	defer children.Unlock()
	for d := range children.live {
		_ = d.cmd.Process.Kill()
		_, _ = d.cmd.Process.Wait()
	}
	children.live = nil
}

// startDaemon launches vqed on a free loopback port with its spool in
// dir and returns once /readyz answers 200.
func startDaemon(ctx context.Context, vqed, dir string) (*daemon, error) {
	start := time.Now()
	args := append([]string{"-addr", "127.0.0.1:0", "-spool", dir}, daemonFlags...)
	cmd := exec.Command(vqed, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// The child must never outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vqed: %w", err)
	}
	d := &daemon{cmd: cmd, spool: dir}
	children.Lock()
	if children.live == nil {
		children.live = map[*daemon]struct{}{}
	}
	children.live[d] = struct{}{}
	children.Unlock()

	addr := make(chan string, 1)
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("vqed did not report its address within 20 s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, errors.New("vqed never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.bootMs = float64(time.Since(start)) / 1e6
	return d, nil
}

// stop drains the daemon (SIGTERM, then SIGKILL after 10 s) and waits for
// it to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	if d.cmd == nil {
		d.halt()
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.logs.Wait()
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	children.Lock()
	delete(children.live, d)
	children.Unlock()
}

// procStatusKB reads one "Vm...: N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// peakRSSMB is the high-water resident set of a process in MiB.
func peakRSSMB(pid int) float64 {
	kb, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return kb / 1024
}

// rssSampler reads a process's resident set every 20 ms until stopped.
// The median of the samples is the memory a run typically holds; unlike
// the high-water mark it does not depend on where one garbage-collection
// cycle happened to peak, so it repeats from run to run.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
				s.mb = append(s.mb, kb/1024)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median resident set in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return probe.Median(s.mb)
}

// procCPUSeconds is user+system CPU time a process has used so far.
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
}

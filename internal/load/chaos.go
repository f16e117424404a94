package load

// The chaos drill: closed-loop load against a vqed daemon that an outside
// driver (scripts/vqed_chaos.sh) is SIGKILLing and restarting mid-run,
// with worker faults injected via the daemon's VQED_FAULTS hook. The
// harness tolerates the resulting connection failures, then audits the
// durability contract:
//
//   - zero job loss: every job the daemon acknowledged settles, and no
//     restart makes it forget an ID (a 404 after acceptance is "lost");
//     a 410 ("evicted") fails the drill too, because a closed-loop client
//     polls its own job within milliseconds of it settling, long before
//     the daemon's retention budget could reach it;
//   - no duplicate results: one job ID per logical submission, and every
//     job sharing a spec hash reports the bit-identical energy;
//   - resume fidelity: energies match a locally computed uninterrupted
//     control run of the same spec, bit for bit.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/runspec"
)

// ChaosConfig parameterizes one chaos drill.
type ChaosConfig struct {
	// BaseURL is the daemon under attack.
	BaseURL string
	// Mix is the spec distribution (required; keep the entries small —
	// every distinct spec is recomputed locally for the control check).
	Mix *runspec.Mix
	// Duration is the submission window (required). Jobs accepted inside
	// the window get their full settle wait after it closes.
	Duration time.Duration
	// Concurrency is the closed-loop submitter count (default 3).
	Concurrency int
	// Seed makes the spec sequence reproducible (default 1).
	Seed int64
	// PollInterval is the settle-polling cadence (default 50ms).
	PollInterval time.Duration
	// SettleTimeout bounds one accepted job's settle wait, restarts
	// included (default 180s).
	SettleTimeout time.Duration
	// SubmitRetryGap paces re-submission while the daemon is down
	// (default 200ms).
	SubmitRetryGap time.Duration
	// Verify enables the in-process control recomputation and bit-equality
	// audit (default on via the CLI; costs one local run per distinct
	// spec).
	Verify bool
}

func (c *ChaosConfig) applyDefaults() error {
	if c.BaseURL == "" {
		return fmt.Errorf("%w: load: chaos: BaseURL required", core.ErrInvalidArgument)
	}
	if c.Mix == nil {
		return fmt.Errorf("%w: load: chaos: Mix required", core.ErrInvalidArgument)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("%w: load: chaos: Duration must be > 0", core.ErrInvalidArgument)
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 180 * time.Second
	}
	if c.SubmitRetryGap <= 0 {
		c.SubmitRetryGap = 200 * time.Millisecond
	}
	return nil
}

// ChaosJob is the audited fate of one logical submission.
type ChaosJob struct {
	SubmissionID int64  `json:"submission_id"`
	Class        string `json:"class"`
	JobID        string `json:"job_id,omitempty"`
	SpecHash     string `json:"spec_hash,omitempty"`
	// Status: the terminal daemon status, or "lost" (the daemon forgot an
	// acknowledged ID after a restart), "evicted" (the daemon answered 410:
	// it dropped the settled job before the client read it), "unsettled"
	// (no terminal state within SettleTimeout), or "unaccepted" (the
	// window closed before the daemon ever acknowledged the submission —
	// not a durability fault).
	Status string `json:"status"`
	// Attempts counts submission tries: rejections and connection failures
	// during daemon restarts before the acceptance.
	Attempts int     `json:"attempts"`
	Energy   float64 `json:"energy,omitempty"`
	// Retries is the daemon-side scheduler retry count (injected panics
	// and stalls consumed from the job's budget).
	Retries int `json:"retries,omitempty"`
}

// ChaosReport is the machine-readable outcome of one drill
// (chaos_report.json).
type ChaosReport struct {
	Tool      string  `json:"tool"`
	Target    string  `json:"target"`
	Mix       string  `json:"mix"`
	Seed      int64   `json:"seed"`
	DurationS float64 `json:"duration_s"`

	Submitted   int `json:"submitted"` // logical submissions (unaccepted included)
	Accepted    int `json:"accepted"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Interrupted int `json:"interrupted"`
	Lost        int `json:"lost"`
	Evicted     int `json:"evicted"`
	Unsettled   int `json:"unsettled"`
	Unaccepted  int `json:"unaccepted"`
	// DuplicateJobIDs counts daemon job IDs handed to more than one
	// logical submission — an exactly-once violation.
	DuplicateJobIDs int `json:"duplicate_job_ids"`
	// DaemonRetries totals scheduler retries across settled jobs (evidence
	// the injected faults actually fired and were recovered).
	DaemonRetries int `json:"daemon_retries"`
	// RestartsObserved counts daemon down→up transitions seen by the
	// health prober during the drill.
	RestartsObserved int `json:"restarts_observed"`

	// ControlChecked / BitMismatches audit resume fidelity: every done
	// job's energy against the local uninterrupted control run of its
	// spec, compared by exact bit pattern.
	ControlChecked int `json:"control_checked"`
	BitMismatches  int `json:"bit_mismatches"`
	// ResultDivergence counts spec hashes whose daemon-side jobs disagree
	// among themselves (duplicate submissions must be bit-identical).
	ResultDivergence int `json:"result_divergence"`

	Jobs []ChaosJob `json:"jobs"`
}

// RunChaos executes the drill: generate load, survive the kills, audit.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	client := NewClient(cfg.BaseURL)
	// The daemon must be up once before the drill starts; after that,
	// downtime is part of the exercise.
	if !client.Healthy(ctx) {
		return nil, fmt.Errorf("load: chaos: daemon at %s is not healthy", cfg.BaseURL)
	}

	start := time.Now()
	end := start.Add(cfg.Duration)
	runCtx, cancel := context.WithDeadline(ctx, end.Add(cfg.SettleTimeout+30*time.Second))
	defer cancel()

	// Health prober: counts restarts as down→up transitions.
	var restarts atomic.Int64
	probeDone := make(chan struct{})
	probeStop := make(chan struct{})
	go func() {
		defer close(probeDone)
		up := true
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-probeStop:
				return
			case <-runCtx.Done():
				return
			case <-tick.C:
				healthy := client.Healthy(runCtx)
				if healthy && !up {
					restarts.Add(1)
				}
				up = healthy
			}
		}
	}()

	var (
		mu   sync.Mutex
		jobs []ChaosJob
		seq  atomic.Int64
	)
	record := func(j ChaosJob) {
		mu.Lock()
		jobs = append(jobs, j)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
			for time.Now().Before(end) && runCtx.Err() == nil {
				entry := cfg.Mix.Sample(rng)
				j := ChaosJob{SubmissionID: seq.Add(1), Class: entry.Name}
				if !chaosSubmit(runCtx, client, cfg, entry, end, &j) {
					record(j)
					continue
				}
				chaosSettle(runCtx, client, cfg, &j)
				record(j)
			}
		}(w)
	}
	wg.Wait()
	close(probeStop)
	<-probeDone

	mu.Lock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].SubmissionID < jobs[b].SubmissionID })
	all := jobs
	mu.Unlock()

	rep := buildChaosReport(all, cfg)
	rep.RestartsObserved = int(restarts.Load())
	if cfg.Verify {
		if err := rep.verifyEnergies(ctx, cfg.Mix); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// chaosSubmit posts one spec until acceptance, riding out rejections and
// daemon downtime. Returns false when the window closed first (j.Status
// is then "unaccepted").
func chaosSubmit(ctx context.Context, client *Client, cfg ChaosConfig, entry runspec.MixEntry, end time.Time, j *ChaosJob) bool {
	spec := entry.Spec
	for {
		if ctx.Err() != nil || !time.Now().Before(end.Add(cfg.SubmitRetryGap)) {
			j.Status = "unaccepted"
			return false
		}
		j.Attempts++
		sub, err := client.Submit(ctx, &spec)
		switch {
		case err != nil:
			// Daemon down (mid-kill) or submission interrupted: the job was
			// never acknowledged, so retrying the same spec is safe — the
			// daemon's content-addressed cache collapses any duplicate that
			// did slip through before the crash.
			sleepUntil(ctx, time.Now().Add(cfg.SubmitRetryGap))
		case sub.Rejected:
			backoff := sub.RetryAfter
			if backoff <= 0 {
				backoff = cfg.SubmitRetryGap
			}
			if backoff > maxRejectBackoff {
				backoff = maxRejectBackoff
			}
			sleepUntil(ctx, time.Now().Add(backoff))
		default:
			j.JobID = sub.View.ID
			j.SpecHash = sub.View.SpecHash
			return true
		}
	}
}

// chaosSettle polls an accepted job to a terminal state, tolerating
// connection failures while the daemon restarts. A 404 is job loss.
func chaosSettle(ctx context.Context, client *Client, cfg ChaosConfig, j *ChaosJob) {
	deadline := time.Now().Add(cfg.SettleTimeout)
	for {
		if ctx.Err() != nil || time.Now().After(deadline) {
			j.Status = "unsettled"
			return
		}
		v, err := client.Job(ctx, j.JobID)
		switch {
		case errors.Is(err, ErrJobNotFound):
			j.Status = "lost"
			return
		case errors.Is(err, ErrJobEvicted):
			j.Status = "evicted"
			return
		case err != nil:
			sleepUntil(ctx, time.Now().Add(cfg.PollInterval))
		case v.terminal():
			j.Status = v.Status
			j.Retries = v.Attempt
			if v.Result != nil {
				j.Energy = v.Result.Energy
			}
			return
		default:
			sleepUntil(ctx, time.Now().Add(cfg.PollInterval))
		}
	}
}

func buildChaosReport(jobs []ChaosJob, cfg ChaosConfig) *ChaosReport {
	rep := &ChaosReport{
		Tool:      "vqeload-chaos",
		Target:    cfg.BaseURL,
		Mix:       cfg.Mix.Name(),
		Seed:      cfg.Seed,
		DurationS: cfg.Duration.Seconds(),
		Jobs:      jobs,
	}
	ids := map[string]int{}
	for _, j := range jobs {
		rep.Submitted++
		switch j.Status {
		case "unaccepted":
			rep.Unaccepted++
			continue
		}
		rep.Accepted++
		ids[j.JobID]++
		rep.DaemonRetries += j.Retries
		switch j.Status {
		case "done":
			rep.Done++
		case "failed":
			rep.Failed++
		case "interrupted":
			rep.Interrupted++
		case "lost":
			rep.Lost++
		case "evicted":
			rep.Evicted++
		case "unsettled":
			rep.Unsettled++
		}
	}
	for _, n := range ids {
		if n > 1 {
			rep.DuplicateJobIDs += n - 1
		}
	}
	return rep
}

// verifyEnergies recomputes every distinct done spec locally —
// uninterrupted, same engine — and compares energies bit for bit, both
// control-vs-daemon and daemon-job-vs-daemon-job within a spec hash.
func (rep *ChaosReport) verifyEnergies(ctx context.Context, mix *runspec.Mix) error {
	specByHash := map[string]*runspec.RunSpec{}
	for _, e := range mix.Entries() {
		spec := e.Spec
		specByHash[spec.Hash()] = &spec
	}
	byHash := map[string][]int{}
	for i, j := range rep.Jobs {
		if j.Status == "done" {
			byHash[j.SpecHash] = append(byHash[j.SpecHash], i)
		}
	}
	for hash, idxs := range byHash {
		first := rep.Jobs[idxs[0]].Energy
		for _, i := range idxs[1:] {
			if math.Float64bits(rep.Jobs[i].Energy) != math.Float64bits(first) {
				rep.ResultDivergence++
				break
			}
		}
		spec := specByHash[hash]
		if spec == nil {
			// A hash the mix cannot explain (should not happen) — count it
			// as unverifiable rather than guessing.
			continue
		}
		control, err := runspec.Run(ctx, spec, runspec.RunOptions{})
		if err != nil {
			return fmt.Errorf("load: chaos: control run for %s: %w", hash, err)
		}
		rep.ControlChecked += len(idxs)
		for _, i := range idxs {
			if math.Float64bits(rep.Jobs[i].Energy) != math.Float64bits(control.Energy) {
				rep.BitMismatches++
			}
		}
	}
	return nil
}

// Gate enforces the drill's acceptance: zero loss, zero duplicates, zero
// divergence, everything settled, and — when the driver told us how many
// kills it delivered — that the harness actually witnessed them.
func (rep *ChaosReport) Gate(minRestarts int) error {
	var faults []string
	if rep.Done == 0 {
		faults = append(faults, "no jobs completed")
	}
	if rep.Lost > 0 {
		faults = append(faults, fmt.Sprintf("%d job(s) LOST after restart", rep.Lost))
	}
	if rep.Evicted > 0 {
		faults = append(faults, fmt.Sprintf("%d job(s) evicted before the client read them", rep.Evicted))
	}
	if rep.Unsettled > 0 {
		faults = append(faults, fmt.Sprintf("%d job(s) never settled", rep.Unsettled))
	}
	if rep.Failed > 0 {
		faults = append(faults, fmt.Sprintf("%d job(s) failed", rep.Failed))
	}
	if rep.DuplicateJobIDs > 0 {
		faults = append(faults, fmt.Sprintf("%d duplicate job id(s)", rep.DuplicateJobIDs))
	}
	if rep.ResultDivergence > 0 {
		faults = append(faults, fmt.Sprintf("%d spec(s) with diverging results", rep.ResultDivergence))
	}
	if rep.BitMismatches > 0 {
		faults = append(faults, fmt.Sprintf("%d energy(ies) not bit-equal to control", rep.BitMismatches))
	}
	if minRestarts > 0 && rep.RestartsObserved < minRestarts {
		faults = append(faults, fmt.Sprintf("observed %d restart(s), expected ≥ %d — the drill did not actually kill the daemon", rep.RestartsObserved, minRestarts))
	}
	if len(faults) > 0 {
		return fmt.Errorf("load: chaos gate: %s", strings.Join(faults, "; "))
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (rep *ChaosReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders the human-readable drill summary.
func (rep *ChaosReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vqeload chaos  target=%s mix=%s seed=%d window=%.1fs\n",
		rep.Target, rep.Mix, rep.Seed, rep.DurationS)
	fmt.Fprintf(&b, "  submitted=%d accepted=%d done=%d failed=%d interrupted=%d unaccepted=%d\n",
		rep.Submitted, rep.Accepted, rep.Done, rep.Failed, rep.Interrupted, rep.Unaccepted)
	fmt.Fprintf(&b, "  lost=%d evicted=%d unsettled=%d duplicate_ids=%d restarts_observed=%d daemon_retries=%d\n",
		rep.Lost, rep.Evicted, rep.Unsettled, rep.DuplicateJobIDs, rep.RestartsObserved, rep.DaemonRetries)
	fmt.Fprintf(&b, "  control_checked=%d bit_mismatches=%d result_divergence=%d\n",
		rep.ControlChecked, rep.BitMismatches, rep.ResultDivergence)
	return b.String()
}

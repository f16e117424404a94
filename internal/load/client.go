package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/runspec"
	"repro/internal/telemetry"
)

// ErrJobNotFound marks a 404 on a job-by-id lookup: the daemon does not
// know the job, as opposed to being temporarily unreachable.
var ErrJobNotFound = errors.New("load: job not found")

// ErrJobEvicted marks a 410 on a job-by-id lookup: the daemon issued the
// id, the job settled, and it has since been evicted from the daemon's
// bounded table of settled families.
var ErrJobEvicted = errors.New("load: job evicted")

// Client is a thin vqed HTTP client used by the harness: submit a spec,
// poll a job to a terminal state, snapshot the daemon's metrics. It
// deliberately decodes job views into a local struct mirroring
// server.View's wire shape and metrics into telemetry.Snapshot — the
// golden-shape test in internal/server pins the daemon to both.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient normalizes the base URL and installs a default transport
// tuned for many short-lived polling requests against one host.
func NewClient(baseURL string) *Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 256
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Transport: t, Timeout: 30 * time.Second},
	}
}

// JobView mirrors the wire fields of server.View the harness consumes.
// Unknown fields are ignored so the daemon can grow its view; the fields
// named here are schema-pinned by the server's golden-shape test.
type JobView struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
	// Attempt counts scheduler retries consumed (panic/stall recovery).
	Attempt   int        `json:"attempt"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	// Result is present on detail views of settled jobs; only the fields
	// the chaos verifier compares are decoded.
	Result *JobResult `json:"result"`
}

// JobResult is the slice of the daemon's result document the harness
// consumes (bit-equality checks compare Energy exactly).
type JobResult struct {
	Energy    float64 `json:"energy"`
	SpecHash  string  `json:"spec_hash"`
	Converged bool    `json:"converged"`
}

// terminal mirrors server.Status.Terminal without importing the package
// (the harness speaks only the wire protocol).
func (v *JobView) terminal() bool {
	switch v.Status {
	case "done", "failed", "interrupted":
		return true
	}
	return false
}

// SubmitResult is the outcome of one submission attempt.
type SubmitResult struct {
	View *JobView
	// Rejected is set on 503 admission rejections; RetryAfter carries the
	// daemon's quoted wait when it sent one.
	Rejected   bool
	RetryAfter time.Duration
	StatusCode int
}

// Submit posts a spec. A 202/200 returns the job view; a 503 returns
// Rejected with the quoted Retry-After; other statuses are errors.
func (c *Client) Submit(ctx context.Context, spec *runspec.RunSpec) (*SubmitResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("load: marshal spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	res := &SubmitResult{StatusCode: resp.StatusCode}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		v := new(JobView)
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return nil, fmt.Errorf("load: decode job view: %w", err)
		}
		res.View = v
		return res, nil
	case http.StatusServiceUnavailable:
		res.Rejected = true
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if s, err := strconv.Atoi(ra); err == nil {
				res.RetryAfter = time.Duration(s) * time.Second
			}
		}
		return res, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return nil, fmt.Errorf("load: submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
}

// Job fetches the current view of a job.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		// The chaos harness keys on this: a 404 after a daemon restart
		// means the journal LOST the job, which is precisely the failure
		// the drill exists to catch (vs. connection errors, which just
		// mean the daemon is mid-restart).
		return nil, fmt.Errorf("%w: job %s", ErrJobNotFound, id)
	}
	if resp.StatusCode == http.StatusGone {
		return nil, fmt.Errorf("%w: job %s", ErrJobEvicted, id)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("load: job %s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	v := new(JobView)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, fmt.Errorf("load: decode job view: %w", err)
	}
	return v, nil
}

// WaitTerminal polls a job until it settles, the context ends, or the
// deadline passes.
func (c *Client) WaitTerminal(ctx context.Context, id string, poll, timeout time.Duration) (*JobView, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if v.terminal() {
			return v, nil
		}
		if timeout > 0 && time.Now().After(deadline) {
			return v, fmt.Errorf("load: job %s not terminal after %s (status %s)", id, timeout, v.Status)
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Metrics snapshots /v1/metrics into the telemetry schema.
func (c *Client) Metrics(ctx context.Context) (*telemetry.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: metrics: HTTP %d", resp.StatusCode)
	}
	snap := new(telemetry.Snapshot)
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return nil, fmt.Errorf("load: decode metrics: %w", err)
	}
	return snap, nil
}

// Healthy reports whether /healthz answers 200.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return false
	}
	defer drain(resp)
	return resp.StatusCode == http.StatusOK
}

// drain consumes and closes a response body so the transport reuses the
// connection — the harness issues thousands of polls per run.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

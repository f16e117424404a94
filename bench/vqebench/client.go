package main

// The benchmark's own client for the daemon's /v1 surface. It speaks only
// the golden-pinned wire shapes: POST a document, follow the entity's SSE
// stream to its terminal frame, GET the detail view. Completion is seen
// on the stream, never by polling.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// jobView / sweepView mirror the fields of the /v1 views the benchmark
// reads. Unknown fields are ignored, so additive changes to the views do
// not break it.
type jobView struct {
	ID        string     `json:"id"`
	SpecHash  string     `json:"spec_hash"`
	Status    string     `json:"status"`
	CacheHit  bool       `json:"cache_hit"`
	Error     string     `json:"error"`
	Attempt   int        `json:"attempt"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Result    *struct {
		Energy            float64 `json:"energy"`
		Exact             float64 `json:"exact"`
		EnergyEvaluations int     `json:"energy_evaluations"`
	} `json:"result"`
}

type sweepView struct {
	ID                string     `json:"id"`
	Status            string     `json:"status"`
	Points            int        `json:"points"`
	Done              int        `json:"done"`
	Failed            int        `json:"failed"`
	CacheHits         int        `json:"cache_hits"`
	WarmStarts        int        `json:"warm_starts"`
	EnergyEvaluations int        `json:"energy_evaluations"`
	Submitted         time.Time  `json:"submitted"`
	Started           *time.Time `json:"started"`
	Finished          *time.Time `json:"finished"`
	Curve             []struct {
		Value  float64 `json:"value"`
		Energy float64 `json:"energy"`
		Exact  float64 `json:"exact"`
	} `json:"curve"`
}

// frame is one SSE frame as the client saw it.
type frame struct {
	Type string
	At   time.Time
}

// terminalStatus reports whether an event type ends a stream.
func terminalStatus(s string) bool {
	switch s {
	case "done", "failed", "interrupted", "cancelled":
		return true
	}
	return false
}

// client is one closed-loop caller: one connection, one request at a time.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
		// An operation that takes two minutes has failed, whatever it returns.
		Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out, draining the
// body so the connection is reused.
func (c *client) do(ctx context.Context, method, path, body string, out any) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, firstLine(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func firstLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}

// follow reads an SSE stream until its terminal frame and returns every
// frame type with the time the client saw it.
func (c *client) follow(ctx context.Context, path string) ([]frame, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		f := frame{Type: strings.TrimPrefix(line, "event: "), At: time.Now()}
		frames = append(frames, f)
		if terminalStatus(f.Type) {
			// The server ends the response after the terminal frame;
			// read to EOF so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return frames, nil
		}
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	return frames, fmt.Errorf("GET %s: stream ended without a terminal frame", path)
}

// jobOutcome is everything the client learned about one submission.
type jobOutcome struct {
	Sent, Acked, Terminal time.Time
	View                  jobView
	Frames                []frame
}

// runJob submits a spec and waits for its terminal frame. A cache hit is
// answered whole by the POST (200 with the settled job), so it has no
// stream to follow.
func (c *client) runJob(ctx context.Context, body string) (jobOutcome, error) {
	var o jobOutcome
	o.Sent = time.Now()
	code, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &o.View)
	o.Acked = time.Now()
	if err != nil {
		return o, err
	}
	if code == http.StatusOK && terminalStatus(o.View.Status) {
		o.Terminal = o.Acked
		return o, nil
	}
	o.Frames, err = c.follow(ctx, "/v1/jobs/"+o.View.ID+"/events")
	o.Terminal = time.Now()
	if err != nil {
		return o, err
	}
	// The terminal frame carries no energy; the detail view does.
	_, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+o.View.ID, "", &o.View)
	return o, err
}

// sweepOutcome is everything the client learned about one family.
type sweepOutcome struct {
	Sent, Acked, Terminal time.Time
	View                  sweepView
	Frames                []frame
}

func (c *client) runSweep(ctx context.Context, body string) (sweepOutcome, error) {
	var o sweepOutcome
	o.Sent = time.Now()
	_, err := c.do(ctx, http.MethodPost, "/v1/sweeps", body, &o.View)
	o.Acked = time.Now()
	if err != nil {
		return o, err
	}
	o.Frames, err = c.follow(ctx, "/v1/sweeps/"+o.View.ID+"/events")
	o.Terminal = time.Now()
	if err != nil {
		return o, err
	}
	_, err = c.do(ctx, http.MethodGet, "/v1/sweeps/"+o.View.ID, "", &o.View)
	return o, err
}

// metricsSnapshot is the part of /v1/metrics the trace reads.
type metricsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
	Timers   map[string]struct {
		Count   int64 `json:"count"`
		TotalNs int64 `json:"total_ns"`
	} `json:"timers"`
}

func (c *client) metrics(ctx context.Context) (metricsSnapshot, error) {
	var m metricsSnapshot
	_, err := c.do(ctx, http.MethodGet, "/v1/metrics", "", &m)
	return m, err
}

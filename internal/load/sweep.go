package load

// Sweep-family client surface: submit a SweepSpec, poll the family view,
// wait for the curve to settle. Like the job client, it decodes into
// local structs mirroring the daemon's wire shapes — the golden-shape
// tests in internal/server pin the daemon to these field names.

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
)

// ErrSweepNotFound marks a 404 on a sweep-by-id lookup: the daemon does
// not know the family — after a restart that means the journal lost it,
// which is the failure the sweep smoke drill exists to catch.
var ErrSweepNotFound = errors.New("load: sweep not found")

// ErrSweepEvicted marks a 410 on a sweep-by-id lookup: the family settled
// and the daemon has since evicted it from its bounded table of settled
// families.
var ErrSweepEvicted = errors.New("load: sweep evicted")

// SweepPointView mirrors server.SweepPointView's wire fields.
type SweepPointView struct {
	Point       int     `json:"point"`
	Value       float64 `json:"value"`
	SpecHash    string  `json:"spec_hash"`
	Status      string  `json:"status"`
	CacheHit    bool    `json:"cache_hit"`
	WarmStarted bool    `json:"warm_started"`
	Attempt     int     `json:"attempt"`
	Error       string  `json:"error"`
	Energy      float64 `json:"energy"`
}

// CurvePoint mirrors server.CurvePoint: one finished sample, ascending
// by axis value.
type CurvePoint struct {
	Value       float64 `json:"value"`
	Energy      float64 `json:"energy"`
	Exact       float64 `json:"exact"`
	Evaluations int     `json:"evaluations"`
}

// SweepView mirrors the wire fields of server.SweepView the harness
// consumes.
type SweepView struct {
	ID                string           `json:"id"`
	FamilyHash        string           `json:"family_hash"`
	Param             string           `json:"param"`
	Status            string           `json:"status"`
	Error             string           `json:"error"`
	Points            int              `json:"points"`
	Done              int              `json:"done"`
	Failed            int              `json:"failed"`
	Cancelled         int              `json:"cancelled"`
	CacheHits         int              `json:"cache_hits"`
	WarmStarts        int              `json:"warm_starts"`
	EnergyEvaluations int              `json:"energy_evaluations"`
	Submitted         time.Time        `json:"submitted"`
	Started           *time.Time       `json:"started"`
	Finished          *time.Time       `json:"finished"`
	PointStates       []SweepPointView `json:"point_states"`
	Curve             []CurvePoint     `json:"curve"`
}

// Terminal mirrors server.Status.Terminal for family states.
func (v *SweepView) Terminal() bool {
	switch v.Status {
	case "done", "failed", "interrupted", "cancelled":
		return true
	}
	return false
}

// SubmitSweepResult is the outcome of one family submission attempt.
type SubmitSweepResult struct {
	View *SweepView
	// Rejected is set on 503 admission rejections; RetryAfter carries the
	// daemon's quoted wait when it sent one.
	Rejected   bool
	RetryAfter time.Duration
	StatusCode int
}

// SubmitSweep posts a family document. A 202/200 returns the sweep view;
// a 503 returns Rejected with the quoted Retry-After.
func (c *Client) SubmitSweep(ctx context.Context, ss *runspec.SweepSpec) (*SubmitSweepResult, error) {
	body, err := json.Marshal(ss)
	if err != nil {
		return nil, fmt.Errorf("load: marshal sweep: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	res := &SubmitSweepResult{StatusCode: resp.StatusCode}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		v := new(SweepView)
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return nil, fmt.Errorf("load: decode sweep view: %w", err)
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
	return nil, fmt.Errorf("load: submit sweep: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
}

// Sweep fetches the current detail view of a family (per-point states
// and the partial curve included).
func (c *Client) Sweep(ctx context.Context, id string) (*SweepView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/sweeps/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: sweep %s", ErrSweepNotFound, id)
	}
	if resp.StatusCode == http.StatusGone {
		return nil, fmt.Errorf("%w: sweep %s", ErrSweepEvicted, id)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("load: sweep %s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	v := new(SweepView)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, fmt.Errorf("load: decode sweep view: %w", err)
	}
	return v, nil
}

package server

// The daemon's one record type. A family is an ordered set of points,
// each point one VQE solve; it is the unit of admission, scheduling,
// journaling and replay. POST /v1/sweeps submits a family with an axis —
// executed by one worker slot walking the points in ascending axis order
// so every point warm-starts from its nearest finished neighbor and all
// points share one Hamiltonian build cache. POST /v1/jobs submits a solo
// family: one point, no axis. The two endpoints are views rendered from
// the same record (jobView, sweepView); nothing below the HTTP layer has
// a second code path for either.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runspec"
	"repro/internal/telemetry"
)

// Status is a lifecycle state, of a family or of one of its points.
type Status string

const (
	// StatusQueued: accepted, waiting for a scheduler slot.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the spec.
	StatusRunning Status = "running"
	// StatusDone: completed; the result is final and cached.
	StatusDone Status = "done"
	// StatusFailed: the run returned an error.
	StatusFailed Status = "failed"
	// StatusInterrupted: halted by shutdown or walltime with best-so-far
	// results; a checkpoint on disk resumes the exact trajectory.
	StatusInterrupted Status = "interrupted"
	// StatusCancelled: a sweep family (or one of its not-yet-run points)
	// was cancelled by the client. Jobs never reach this state.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusInterrupted || s == StatusCancelled
}

// EventRetrying is the non-lifecycle event type published when a point
// failed retryably (panic, stall, transient fault) and will be re-run;
// Error carries the reason. A job returns to "queued" immediately after.
const EventRetrying = "retrying"

// EventPointDone / EventPointFailed are the sweep point-completion
// frames: one per settled family member, carrying Point/Value (and
// Energy on success).
const (
	EventPointDone   = "point_done"
	EventPointFailed = "point_failed"
)

// Event is one SSE frame: a lifecycle transition, a per-iteration
// progress sample, or a sweep point completion.
type Event struct {
	// Type: queued | running | progress | retrying | done | failed |
	// interrupted | cancelled | point_done | point_failed.
	Type string `json:"type"`
	// Seq numbers events within a job or sweep, monotonically from 1.
	Seq int `json:"seq"`
	// Progress fields (Type == "progress").
	Phase     string  `json:"phase,omitempty"`
	Iteration int     `json:"iteration,omitempty"`
	Energy    float64 `json:"energy,omitempty"`
	Operator  string  `json:"operator,omitempty"`
	// Point / Value identify the sweep member a frame belongs to
	// (point_done, point_failed, and sweep progress frames). Point is
	// the 1-based submission-order index.
	Point int     `json:"point,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Error is set on failed events.
	Error string `json:"error,omitempty"`
}

// maxEventHistory bounds the per-family replay buffer; when full, the
// oldest progress events are dropped (lifecycle events are never dropped).
const maxEventHistory = 1024

// The two views a family is served through. The kind names the endpoint
// (/v1/<kind>s), prefixes the id sequence (<kind>-%06d — which is how
// replay tells the views apart) and selects the telemetry names, all of
// which predate the merge and stay as they were.
const (
	kindJob   = "job"
	kindSweep = "sweep"
)

// kindCounters are one view's admission, recovery and outcome counters.
type kindCounters struct {
	submitted, rejected, recovered *telemetry.Counter
	settled                        map[Status]*telemetry.Counter
}

var countersOf = map[string]kindCounters{
	kindJob: {
		submitted: telemetry.GetCounter("server.jobs.submitted"),
		rejected:  telemetry.GetCounter("server.jobs.rejected"),
		recovered: telemetry.GetCounter("server.jobs.recovered"),
		settled: map[Status]*telemetry.Counter{
			StatusDone:        telemetry.GetCounter("server.jobs.completed"),
			StatusFailed:      telemetry.GetCounter("server.jobs.failed"),
			StatusInterrupted: mJobsInterrupted,
		},
	},
	kindSweep: {
		submitted: telemetry.GetCounter("server.sweeps.submitted"),
		rejected:  telemetry.GetCounter("server.sweeps.rejected"),
		recovered: telemetry.GetCounter("server.sweeps.recovered"),
		settled: map[Status]*telemetry.Counter{
			StatusDone:      telemetry.GetCounter("server.sweeps.completed"),
			StatusFailed:    telemetry.GetCounter("server.sweeps.failed"),
			StatusCancelled: telemetry.GetCounter("server.sweeps.cancelled"),
		},
	},
}

// point is one family member's mutable execution state, guarded by the
// owning family's mu. pt is the immutable identity (index, value, spec,
// rs1 hash).
type point struct {
	pt        runspec.SweepPoint
	status    Status
	err       string
	result    *runspec.Result
	cacheHit  bool
	warmStart bool
	// attempt counts completed execution attempts (0 before the first
	// retry); the retry budget is measured against it.
	attempt int
	// resume marks that the next execution should load the checkpoint
	// (set after a retryable failure left a valid snapshot, or by journal
	// recovery after a daemon restart).
	resume bool
	// checkpoint is the spool path assigned to this point.
	checkpoint string
}

// family is one submission and everything observed about its execution.
// All mutable fields are guarded by mu. Lock order: Server.mu before
// family.mu, never the reverse; the embedded hub's lock is independent of
// both (see eventHub).
type family struct {
	ID string
	// sweep is the submitted axis document; nil marks a solo family.
	sweep *runspec.SweepSpec
	// hash is the content hash the family is known by: the sw1 family
	// hash, or for a solo family its point's rs1 hash — the cache key.
	hash string

	mu     sync.Mutex
	status Status
	err    string
	// cancelled is sticky once a client DELETE lands; the executor
	// checks it between points.
	cancelled bool
	// cancelCause cancels the in-flight family context (set while a
	// worker owns the family).
	cancelCause context.CancelCauseFunc
	points      []*point
	// order is the execution sequence: point indices ascending by axis
	// value (runspec.ExecutionOrder).
	order     []int
	submitted time.Time
	started   time.Time
	finished  time.Time

	// final is set, under Server.mu (not mu), once the family has settled
	// for good and counts against settledBudget: eviction may drop it.
	final bool

	// lastBeat is the UnixNano of the running point's most recent engine
	// progress heartbeat — what the stuck-job watchdog compares against
	// its no-progress deadline. Atomic so the watchdog never contends
	// with the hot observer path.
	lastBeat atomic.Int64

	eventHub
}

// soloPoints expands a single spec the way SweepSpec.Points expands an
// axis: to the one point of a solo family.
func soloPoints(spec *runspec.RunSpec) []runspec.SweepPoint {
	return []runspec.SweepPoint{{Spec: spec, Hash: spec.Hash()}}
}

func newFamily(id string, sweep *runspec.SweepSpec, points []runspec.SweepPoint) *family {
	f := &family{
		ID:        id,
		sweep:     sweep,
		status:    StatusQueued,
		points:    make([]*point, len(points)),
		order:     runspec.ExecutionOrder(points),
		submitted: time.Now(),
		eventHub:  newEventHub(),
	}
	if sweep != nil {
		f.hash = sweep.Hash()
	} else {
		f.hash = points[0].Hash
	}
	for i, p := range points {
		f.points[i] = &point{pt: p, status: StatusQueued}
	}
	return f
}

func (f *family) solo() bool { return f.sweep == nil }

func (f *family) kind() string {
	if f.solo() {
		return kindJob
	}
	return kindSweep
}

// pointNo is how journal records and SSE frames name p: its 1-based
// submission index, or 0 — "the family itself" — for the point of a solo
// family. That is why a job's records and frames carry no point at all,
// and why its point's terminal record is the family's.
func (f *family) pointNo(p *point) int {
	if f.solo() {
		return 0
	}
	return p.pt.Index + 1
}

// document marshals what the family was submitted as, for its accepted
// record.
func (f *family) document() json.RawMessage {
	if f.solo() {
		return rawJSON(f.points[0].pt.Spec)
	}
	return rawJSON(f.sweep)
}

// beat records engine liveness for the watchdog.
func (f *family) beat() { f.lastBeat.Store(time.Now().UnixNano()) }

// pointEvent publishes an event about one point in the family's stream.
func (f *family) pointEvent(p *point, e Event) {
	e.Point, e.Value = f.pointNo(p), p.pt.Value
	f.publish(e)
}

// outcome derives the family's terminal state from its points: cancelled
// beats failed beats done, and a solo family is its point. Callers hold
// f.mu.
func (f *family) outcome() (Status, string) {
	if f.cancelled {
		return StatusCancelled, errCancelled.Error()
	}
	if f.solo() {
		return f.points[0].status, f.points[0].err
	}
	failed := 0
	for _, p := range f.points {
		if p.status == StatusFailed {
			failed++
		}
	}
	if failed > 0 {
		return StatusFailed, fmt.Sprintf("%d of %d point(s) failed", failed, len(f.points))
	}
	return StatusDone, ""
}

// snapshot returns the family's state, and for a solo family its
// point's result — the fields a job poll needs.
func (f *family) snapshot() (Status, *runspec.Result, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var res *runspec.Result
	if f.solo() {
		res = f.points[0].result
	}
	return f.status, res, f.err
}

// view renders the family for the endpoint it was submitted through.
// detail embeds the result (jobs) or the per-point states and curve
// (sweeps); listings elide them.
func (f *family) view(detail bool) any {
	if f.solo() {
		return f.jobView(detail)
	}
	return f.sweepView(detail)
}

// stamps renders the started/finished timestamps as the views carry
// them: absent until set. Callers hold f.mu.
func (f *family) stamps() (started, finished *time.Time) {
	if !f.started.IsZero() {
		t := f.started
		started = &t
	}
	if !f.finished.IsZero() {
		t := f.finished
		finished = &t
	}
	return started, finished
}

// View is the JSON representation of a job served by the jobs endpoints.
type View struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Status   Status `json:"status"`
	// CacheHit marks a job served from the result cache without
	// re-simulation.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Attempt counts retries consumed so far (0 = first execution).
	Attempt int `json:"attempt,omitempty"`
	// CheckpointPath is set once the job has a spool snapshot to resume
	// from (interrupted jobs).
	CheckpointPath string          `json:"checkpoint_path,omitempty"`
	Submitted      time.Time       `json:"submitted"`
	Started        *time.Time      `json:"started,omitempty"`
	Finished       *time.Time      `json:"finished,omitempty"`
	Result         *runspec.Result `json:"result,omitempty"`
}

// jobView renders a solo family as a job.
func (f *family) jobView(withResult bool) View {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.points[0]
	v := View{
		ID:        f.ID,
		SpecHash:  f.hash,
		Status:    f.status,
		CacheHit:  p.cacheHit,
		Error:     f.err,
		Attempt:   p.attempt,
		Submitted: f.submitted,
	}
	if f.status == StatusInterrupted {
		v.CheckpointPath = p.checkpoint
	}
	v.Started, v.Finished = f.stamps()
	if withResult {
		v.Result = p.result
	}
	return v
}

// SweepPointView is one point's state on the wire. Point is the 1-based
// submission-order index, matching the Point field of SSE frames and
// journal records.
type SweepPointView struct {
	Point       int     `json:"point"`
	Value       float64 `json:"value"`
	SpecHash    string  `json:"spec_hash"`
	Status      Status  `json:"status"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	WarmStarted bool    `json:"warm_started,omitempty"`
	Attempt     int     `json:"attempt,omitempty"`
	Error       string  `json:"error,omitempty"`
	// Energy is the converged point energy (done points only).
	Energy float64 `json:"energy,omitempty"`
}

// CurvePoint is one finished sample of the family's curve, ascending by
// axis value.
type CurvePoint struct {
	Value  float64 `json:"value"`
	Energy float64 `json:"energy"`
	Exact  float64 `json:"exact,omitempty"`
	// Evaluations is the optimizer's energy-evaluation count for this
	// point — the warm-start savings show up here.
	Evaluations int `json:"evaluations,omitempty"`
}

// SweepView is the JSON representation of a family served by the sweeps
// endpoints.
type SweepView struct {
	ID         string `json:"id"`
	FamilyHash string `json:"family_hash"`
	Param      string `json:"param"`
	Status     Status `json:"status"`
	Error      string `json:"error,omitempty"`
	// Aggregate point counts.
	Points     int `json:"points"`
	Done       int `json:"done"`
	Failed     int `json:"failed,omitempty"`
	Cancelled  int `json:"cancelled,omitempty"`
	CacheHits  int `json:"cache_hits,omitempty"`
	WarmStarts int `json:"warm_starts,omitempty"`
	// EnergyEvaluations totals optimizer work across finished points.
	EnergyEvaluations int        `json:"energy_evaluations,omitempty"`
	Submitted         time.Time  `json:"submitted"`
	Started           *time.Time `json:"started,omitempty"`
	Finished          *time.Time `json:"finished,omitempty"`
	// PointStates (detail only) lists every point in submission order;
	// Curve holds the finished samples ascending by axis value — the
	// partial dissociation curve while the family still runs.
	PointStates []SweepPointView `json:"point_states,omitempty"`
	Curve       []CurvePoint     `json:"curve,omitempty"`
}

// sweepView renders an axis family. withPoints controls whether per-point
// states and the curve are embedded (detail endpoint) or elided
// (listings).
func (f *family) sweepView(withPoints bool) SweepView {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := SweepView{
		ID:         f.ID,
		FamilyHash: f.hash,
		Param:      f.sweep.Axis.Param,
		Status:     f.status,
		Error:      f.err,
		Points:     len(f.points),
		Submitted:  f.submitted,
	}
	v.Started, v.Finished = f.stamps()
	var curve []CurvePoint
	for _, p := range f.points {
		switch p.status {
		case StatusDone:
			v.Done++
		case StatusFailed:
			v.Failed++
		case StatusCancelled:
			v.Cancelled++
		}
		if p.cacheHit {
			v.CacheHits++
		}
		if p.warmStart {
			v.WarmStarts++
		}
		if p.result != nil {
			v.EnergyEvaluations += p.result.EnergyEvaluations
		}
		if withPoints {
			pv := SweepPointView{
				Point:       p.pt.Index + 1,
				Value:       p.pt.Value,
				SpecHash:    p.pt.Hash,
				Status:      p.status,
				CacheHit:    p.cacheHit,
				WarmStarted: p.warmStart,
				Attempt:     p.attempt,
				Error:       p.err,
			}
			if p.status == StatusDone && p.result != nil {
				pv.Energy = p.result.Energy
				curve = append(curve, CurvePoint{
					Value:       p.pt.Value,
					Energy:      p.result.Energy,
					Exact:       p.result.Exact,
					Evaluations: p.result.EnergyEvaluations,
				})
			}
			v.PointStates = append(v.PointStates, pv)
		}
	}
	sort.Slice(curve, func(a, b int) bool { return curve[a].Value < curve[b].Value })
	v.Curve = curve
	return v
}

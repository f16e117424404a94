package main

// vqeload sweep: the sweep-family observer/driver the smoke drill uses.
// It submits a bond-scan family (or attaches to an existing one), polls
// the family view to a terminal state — tolerating connection errors
// while the daemon is being killed and restarted — and gates on the
// family invariants:
//
//   - ordered completion: at every observation the done set is a prefix
//     of the value-ascending execution order (-assert-order),
//   - zero lost points: a 404 for the family after a restart fails
//     immediately (the journal lost it),
//   - exactly-once settlement: each point terminal exactly once, with
//     done+failed+cancelled covering the family.
//
//	vqeload sweep -addr http://127.0.0.1:8931 -start 0.4 -stop 2.0 -step 0.05 -out sweep_curve.json
//	vqeload sweep -addr http://127.0.0.1:8931 -attach sweep-000001 -assert-order -tolerate 30s

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/load"
	"repro/internal/runspec"
)

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vqeload sweep", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8931)")
	attach := fs.String("attach", "", "observe an existing sweep ID instead of submitting")
	start := fs.Float64("start", 0.4, "bond-scan start distance (Å)")
	stop := fs.Float64("stop", 2.0, "bond-scan stop distance (Å)")
	step := fs.Float64("step", 0.05, "bond-scan step (Å)")
	maxIter := fs.Int("maxiter", 0, "per-point optimizer iteration cap (0 = spec default)")
	poll := fs.Duration("poll", 50*time.Millisecond, "family poll cadence")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline for the family to settle")
	tolerate := fs.Duration("tolerate", 0, "tolerate daemon connection errors for up to this long (restart windows)")
	assertOrder := fs.Bool("assert-order", false, "fail if done points are ever not a prefix of the value-ascending order (assumes a cold cache and no failures)")
	out := fs.String("out", "", "write the final family view (curve included) as JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("sweep needs -addr")
	}
	c := load.NewClient(*addr)

	id := *attach
	if id == "" {
		base := runspec.RunSpec{
			Algorithm: runspec.AlgorithmVQE,
			Molecule:  runspec.MoleculeSpec{Kind: "h2"},
		}
		if *maxIter > 0 {
			base.Optimizer.MaxIter = *maxIter
		}
		ss := &runspec.SweepSpec{
			Base: base,
			Axis: runspec.SweepAxis{Param: runspec.AxisDistance, Start: *start, Stop: *stop, Step: *step},
		}
		res, err := c.SubmitSweep(ctx, ss)
		if err != nil {
			return fmt.Errorf("submit sweep: %w", err)
		}
		if res.Rejected {
			return fmt.Errorf("submit sweep: rejected with 503 (retry-after %s)", res.RetryAfter)
		}
		id = res.View.ID
		fmt.Fprintf(os.Stderr, "vqeload: sweep %s accepted: %d points of %s (family %s)\n",
			id, res.View.Points, res.View.Param, res.View.FamilyHash)
	}

	deadline := time.Now().Add(*timeout)
	var downSince time.Time
	everSeen := *attach != ""
	var final *load.SweepView
	for final == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep %s not terminal after %s", id, *timeout)
		}
		v, err := c.Sweep(ctx, id)
		switch {
		case err == nil:
			downSince = time.Time{}
			everSeen = true
			if *assertOrder {
				if aerr := assertPrefixOrder(v); aerr != nil {
					return aerr
				}
			}
			if v.Terminal() {
				final = v
				continue
			}
		case errors.Is(err, load.ErrSweepNotFound) && everSeen:
			// The daemon answered — with "never heard of it". After a
			// restart this means the journal lost the family.
			return fmt.Errorf("sweep LOST: %w", err)
		case errors.Is(err, load.ErrSweepEvicted):
			// The daemon settled the family and dropped it from its
			// retained set before this observer saw the terminal state.
			return fmt.Errorf("sweep evicted before it was seen settled: %w", err)
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Connection error: the daemon is down (mid-restart, when the
			// drill allows it). errors.Is(ErrSweepNotFound) before everSeen
			// also lands here and is fatal below unless tolerated.
			if *tolerate <= 0 {
				return fmt.Errorf("sweep %s: %w", id, err)
			}
			if downSince.IsZero() {
				downSince = time.Now()
			} else if time.Since(downSince) > *tolerate {
				return fmt.Errorf("sweep %s: daemon unreachable for over %s: %w", id, *tolerate, err)
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(*poll):
		}
	}

	settled := final.Done + final.Failed + final.Cancelled
	fmt.Printf("sweep %s: %s — %d points, %d done, %d failed, %d cancelled, %d cache hits, %d warm starts, %d energy evaluations\n",
		final.ID, final.Status, final.Points, final.Done, final.Failed, final.Cancelled,
		final.CacheHits, final.WarmStarts, final.EnergyEvaluations)
	if *out != "" {
		data, err := json.MarshalIndent(final, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vqeload: curve written to %s\n", *out)
	}
	if settled != final.Points {
		return fmt.Errorf("sweep %s: %d of %d points settled — points were lost", final.ID, settled, final.Points)
	}
	if seen := map[int]bool{}; true {
		for _, p := range final.PointStates {
			if seen[p.Point] {
				return fmt.Errorf("sweep %s: point %d settled more than once", final.ID, p.Point)
			}
			seen[p.Point] = true
		}
	}
	if final.Status != "done" {
		return fmt.Errorf("sweep %s settled %s: %s", final.ID, final.Status, final.Error)
	}
	return nil
}

// assertPrefixOrder checks that the done set is a prefix of the
// value-ascending execution order: once a not-done point appears, no
// later point may be done. This is exactly what neighbor-ordered
// dispatch plus journaled resume guarantees on a cold cache.
func assertPrefixOrder(v *load.SweepView) error {
	if v.Failed > 0 {
		return fmt.Errorf("sweep %s: %d point(s) failed under -assert-order", v.ID, v.Failed)
	}
	pts := make([]load.SweepPointView, len(v.PointStates))
	copy(pts, v.PointStates)
	sort.Slice(pts, func(a, b int) bool { return pts[a].Value < pts[b].Value })
	boundary := false
	for _, p := range pts {
		if p.Status != "done" {
			boundary = true
		} else if boundary {
			return fmt.Errorf("sweep %s: point %d (value %g) done out of order — done set is not a prefix of the axis order",
				v.ID, p.Point, p.Value)
		}
	}
	return nil
}

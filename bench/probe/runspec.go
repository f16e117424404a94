package probe

import (
	"context"
	"time"

	"repro/internal/runspec"
)

// ParseHash times decoding, validating and content-hashing a spec
// document, in microseconds.
func ParseHash(e Env, body []byte) (Metrics, error) {
	var err error
	t := e.time("runspec.parse_hash", func() {
		var s *runspec.RunSpec
		if s, err = runspec.Parse(body); err == nil {
			_ = s.Hash()
		}
	})
	return Metrics{"runspec.parse_hash_us": Median(t) * 1e3}, err
}

// Sweep runs one family in-process through RunSweep: what the family
// costs with no daemon around it.
func Sweep(e Env, body []byte) (*runspec.SweepResult, Metrics, error) {
	ss, err := runspec.ParseSweep(body)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res, err := runspec.RunSweep(context.Background(), ss, runspec.SweepRunOptions{})
	end := time.Now()
	if err != nil {
		return nil, nil, err
	}
	e.Span("runspec.sweep_inproc", start, end)
	warm := 0
	for _, p := range res.Points {
		if p.WarmStarted {
			warm++
		}
	}
	return res, Metrics{
		"runspec.sweep_inproc_s":   end.Sub(start).Seconds(),
		"runspec.warm_start_share": Ratio(float64(warm), float64(len(res.Points))),
		"runspec.evals_per_point":  Ratio(float64(res.EnergyEvaluations), float64(len(res.Points))),
	}, nil
}

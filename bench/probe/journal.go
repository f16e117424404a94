package probe

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/server/journal"
)

// journalAppends is how many records each appender writes.
const journalAppends = 200

// Journal appends accepted-job records straight to a fresh WAL in dir:
// first one appender, for the latency of a durable append, then two at
// once, for what group commit makes of two closed-loop clients.
func Journal(e Env, dir string) (Metrics, error) {
	rec := journal.Record{Op: journal.OpAccepted, SpecHash: "rs1:probe",
		Spec: json.RawMessage(`{"molecule":{"kind":"h2-distance","distance":0.7414}}`)}
	appendAll := func(name string, appenders int) ([]float64, time.Duration, error) {
		jn, _, err := journal.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, err
		}
		var mu sync.Mutex
		var lat []float64
		var firstErr error
		var wg sync.WaitGroup
		begin := time.Now()
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine := make([]float64, 0, journalAppends)
				for i := 0; i < journalAppends; i++ {
					start := time.Now()
					err := jn.Append(rec)
					end := time.Now()
					if err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
					if appenders == 1 {
						e.Span("journal.append", start, end)
					}
					mine = append(mine, float64(end.Sub(start))/1e3)
				}
				mu.Lock()
				lat = append(lat, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		wall := time.Since(begin)
		if err := jn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		return lat, wall, firstErr
	}
	one, _, err := appendAll("probe1.wal", 1)
	if err != nil {
		return nil, err
	}
	two, wall, err := appendAll("probe2.wal", 2)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"journal.append_p50_us":    Median(one),
		"journal.append_p95_us":    Percentile(one, 95),
		"journal.appends_per_s_c2": Ratio(float64(len(two)), wall.Seconds()),
	}, nil
}

// Replay times opening an existing WAL, which replays every record.
func Replay(e Env, path string) (Metrics, error) {
	start := time.Now()
	jn, _, err := journal.Open(path)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	e.Span("journal.replay", start, end)
	return Metrics{"journal.replay_ms": float64(end.Sub(start)) / 1e6}, jn.Close()
}

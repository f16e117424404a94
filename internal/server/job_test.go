package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runspec"
)

// TestPublishFanoutExactlyOnce pins the lock-free fan-out in publish:
// the event send happens after j.mu is released, and the hand-off stays
// exact because subscribe copies the history under the same lock. Every
// subscriber must see each event exactly once across replay ∪ live,
// regardless of when it subscribed relative to concurrent publishes.
func TestPublishFanoutExactlyOnce(t *testing.T) {
	spec := &runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "synthetic", Orbitals: 4, Seed: 1}}
	j := newFamily("fanout", nil, soloPoints(spec))

	const publishers = 4
	const perPublisher = 10
	total := publishers*perPublisher + 1 // + terminal "done"

	// Early subscriber: registered before any publish, so it must see the
	// full sequence 1..total with no duplicates.
	earlyReplay, earlyCh := j.subscribe()

	// Mid-stream subscribers race subscribe against the publishers; each
	// still owes the exactly-once union (history is well under the replay
	// cap and the 64-slot buffer, so nothing is legitimately dropped).
	type lateSub struct {
		replay []Event
		ch     chan Event
	}
	lateSubs := make([]lateSub, 0, 8)
	var lateMu sync.Mutex

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				j.publish(Event{Type: "progress", Iteration: i})
			}
		}()
	}
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay, ch := j.subscribe()
			lateMu.Lock()
			lateSubs = append(lateSubs, lateSub{replay, ch})
			lateMu.Unlock()
		}()
	}
	// Churn: subscribers that leave mid-stream must not deadlock or
	// duplicate anything for the others.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ch := j.subscribe()
			j.unsubscribe(ch)
		}()
	}
	wg.Wait()
	j.publish(Event{Type: "done"})
	<-j.done // closed by the terminal publish, after its fan-out

	check := func(name string, replay []Event, ch chan Event) {
		t.Helper()
		seen := map[int]bool{}
		note := func(e Event) {
			if seen[e.Seq] {
				t.Fatalf("%s: seq %d delivered twice", name, e.Seq)
			}
			seen[e.Seq] = true
		}
		for _, e := range replay {
			note(e)
		}
		for {
			select {
			case e := <-ch:
				note(e)
			default:
				for want := 1; want <= total; want++ {
					if !seen[want] {
						t.Fatalf("%s: seq %d missing (saw %d of %d)", name, want, len(seen), total)
					}
				}
				if len(seen) != total {
					t.Fatalf("%s: saw %d events, want %d", name, len(seen), total)
				}
				return
			}
		}
	}
	check("early", earlyReplay, earlyCh)
	for _, s := range lateSubs {
		check("late", s.replay, s.ch)
	}
}

// TestJobWireShapeGolden pins the /v1/jobs wire contract the way
// TestSweepWireShapeGolden pins /v1/sweeps: the 202, cache-hit 200, detail
// and listing bodies and every SSE frame must decode into the pinned
// shapes below with no unknown fields.
func TestJobWireShapeGolden(t *testing.T) {
	type pinnedView struct {
		ID             string          `json:"id"`
		SpecHash       string          `json:"spec_hash"`
		Status         string          `json:"status"`
		CacheHit       bool            `json:"cache_hit"`
		Error          string          `json:"error"`
		Attempt        int             `json:"attempt"`
		CheckpointPath string          `json:"checkpoint_path"`
		Submitted      time.Time       `json:"submitted"`
		Started        *time.Time      `json:"started"`
		Finished       *time.Time      `json:"finished"`
		Result         *runspec.Result `json:"result"`
	}
	type pinnedFrame struct {
		Type      string  `json:"type"`
		Seq       int     `json:"seq"`
		Phase     string  `json:"phase"`
		Iteration int     `json:"iteration"`
		Energy    float64 `json:"energy"`
		Operator  string  `json:"operator"`
		Point     int     `json:"point"`
		Value     float64 `json:"value"`
		Error     string  `json:"error"`
	}
	strict := func(t *testing.T, data []byte, into any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Fatalf("job wire shape drifted from the pinned shape: %v\n%s", err, data)
		}
	}
	do := func(t *testing.T, method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	// frames reads a job's SSE stream to its terminal frame.
	frames := func(t *testing.T, url string) []pinnedFrame {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []pinnedFrame
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				event = name
				continue
			}
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var f pinnedFrame
			strict(t, []byte(data), &f)
			if f.Type != event {
				t.Errorf("frame type %q under event line %q", f.Type, event)
			}
			if f.Seq != len(out)+1 {
				t.Errorf("frame %d carries seq %d", len(out)+1, f.Seq)
			}
			if f.Point != 0 || f.Value != 0 {
				t.Errorf("job frame names a sweep point: %+v", f)
			}
			out = append(out, f)
			if Status(f.Type).Terminal() {
				return out
			}
		}
		t.Fatalf("stream ended without a terminal frame: %+v", out)
		return nil
	}

	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	const spec = `{"optimizer": {"method": "nelder-mead", "max_iter": 60}}`

	status, body := do(t, "POST", ts.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("fresh job acknowledged with %d, want 202: %s", status, body)
	}
	var accepted pinnedView
	strict(t, body, &accepted)
	if accepted.ID != "job-000001" || !strings.HasPrefix(accepted.SpecHash, runspec.HashPrefix+":") ||
		accepted.CacheHit || accepted.Result != nil || accepted.Finished != nil {
		t.Errorf("accepted view %+v", accepted)
	}
	if accepted.Status != "queued" && accepted.Status != "running" {
		t.Errorf("accepted status %q", accepted.Status)
	}

	// The stream replays from the start: queued and running precede the
	// first progress frame, and the one terminal frame is done.
	seen := frames(t, ts.URL+"/v1/jobs/"+accepted.ID+"/events")
	kinds := map[string]int{}
	firstProgress := len(seen)
	for i, f := range seen {
		kinds[f.Type]++
		if f.Type == "progress" && i < firstProgress {
			firstProgress = i
		}
	}
	if kinds["queued"] != 1 || kinds["running"] != 1 || kinds["progress"] == 0 || kinds["done"] != 1 ||
		len(kinds) != 4 || firstProgress < 2 || seen[len(seen)-1].Type != "done" {
		t.Errorf("job frames %v (first progress at %d), want queued+running, progress…, done", kinds, firstProgress)
	}

	status, body = do(t, "GET", ts.URL+"/v1/jobs/"+accepted.ID, "")
	var detail pinnedView
	strict(t, body, &detail)
	if status != http.StatusOK || detail.Status != "done" || detail.Result == nil ||
		detail.Started == nil || detail.Finished == nil || detail.Error != "" ||
		detail.Attempt != 0 || detail.CheckpointPath != "" {
		t.Errorf("detail %d %+v", status, detail)
	}
	if detail.Result.SpecHash != accepted.SpecHash {
		t.Errorf("result hash %s under job hash %s", detail.Result.SpecHash, accepted.SpecHash)
	}

	// An identical spec is a cache hit: settled at admission with a 200.
	status, body = do(t, "POST", ts.URL+"/v1/jobs", spec)
	var hit pinnedView
	strict(t, body, &hit)
	if status != http.StatusOK || hit.ID != "job-000002" || hit.Status != "done" || !hit.CacheHit ||
		hit.Result == nil || hit.Started == nil || hit.Finished == nil ||
		hit.Result.Energy != detail.Result.Energy {
		t.Errorf("cache hit %d %+v", status, hit)
	}
	hitFrames := frames(t, ts.URL+"/v1/jobs/"+hit.ID+"/events")
	if len(hitFrames) != 2 || hitFrames[0].Type != "queued" || hitFrames[1].Type != "done" {
		t.Errorf("cache-hit frames %+v, want queued, done", hitFrames)
	}

	// The listing elides results but keeps the same envelope, in
	// submission order.
	_, body = do(t, "GET", ts.URL+"/v1/jobs", "")
	var list struct {
		Jobs []pinnedView `json:"jobs"`
	}
	strict(t, body, &list)
	if len(list.Jobs) != 2 || list.Jobs[0].ID != accepted.ID || list.Jobs[1].ID != hit.ID ||
		list.Jobs[0].Result != nil || list.Jobs[1].Result != nil || !list.Jobs[1].CacheHit {
		t.Errorf("listing %+v", list)
	}

	// The bare result endpoint serves runspec.Result and nothing else.
	_, body = do(t, "GET", ts.URL+"/v1/jobs/"+accepted.ID+"/result", "")
	var res runspec.Result
	strict(t, body, &res)
	if res.Energy != detail.Result.Energy {
		t.Errorf("result endpoint energy %v, detail %v", res.Energy, detail.Result.Energy)
	}
}

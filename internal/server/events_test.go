package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runspec"
)

// stalledWriter is an SSE response whose client stops reading: every
// write after the first blocks until release is closed.
type stalledWriter struct {
	header  http.Header
	mu      sync.Mutex
	body    strings.Builder
	writes  int
	first   chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	if w.writes == 1 {
		close(w.first)
	}
	w.mu.Unlock()
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

// TestStreamEndsAfterTerminalFrameEvenWhenBehind: a subscriber that falls
// more than its buffer behind loses live frames, but never the end of the
// stream — once the family is terminal the stream writes what its buffer
// dropped, up to the terminal frame, from the history and returns.
func TestStreamEndsAfterTerminalFrameEvenWhenBehind(t *testing.T) {
	spec := &runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "synthetic", Orbitals: 4, Seed: 1}}
	f := newFamily("behind", nil, soloPoints(spec))
	f.publish(Event{Type: string(StatusRunning)})

	w := &stalledWriter{header: http.Header{}, first: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/behind/events", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		streamEvents(w, req, f)
	}()
	<-w.first // subscribed, and stuck writing the replayed frame
	for i := 0; i < 200; i++ {
		f.publish(Event{Type: "progress", Iteration: i})
	}
	f.publish(Event{Type: string(StatusDone)})
	close(w.release)

	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		cancel()
		<-returned
		t.Fatal("the stream did not end after the family's terminal frame")
	}
	body := w.body.String()
	if !strings.HasSuffix(body, "\n\n") || !strings.Contains(body, "event: done\n") {
		t.Fatalf("stream ended without its terminal frame:\n...%s", body[max(0, len(body)-200):])
	}
	if n := strings.Count(body, "event: done\n"); n != 1 {
		t.Errorf("terminal frame written %d times", n)
	}
}

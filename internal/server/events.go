package server

// eventHub is a family's publish/subscribe core: a bounded replayable
// event history plus live fan-out to SSE subscribers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// eventHub carries one family's event stream. The zero value is not
// ready; use newEventHub.
type eventHub struct {
	mu      sync.Mutex
	seq     int
	history []Event
	subs    map[chan Event]struct{}
	done    chan struct{}
}

func newEventHub() eventHub {
	return eventHub{
		subs: map[chan Event]struct{}{},
		done: make(chan struct{}),
	}
}

// publish appends an event to the history and fans it out to live
// subscribers. Slow subscribers lose events rather than stalling the
// simulation (SSE replay from the history covers reconnects).
//
// The fan-out happens after h.mu is released: the critical section
// covers only the sequence/history update plus a snapshot of the
// subscriber set, so SSE consumers never gate the simulation's lock.
// The hand-off stays exact because subscribe copies the history under
// the same lock: a subscriber added after the snapshot already has e in
// its replay, and one removed before the send just receives into a
// buffered channel nobody drains.
func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	h.seq++
	e.Seq = h.seq
	if len(h.history) >= maxEventHistory {
		// Drop the oldest progress event; lifecycle events stay.
		for i, old := range h.history {
			if old.Type == "progress" {
				h.history = append(h.history[:i], h.history[i+1:]...)
				break
			}
		}
	}
	h.history = append(h.history, e)
	subs := make([]chan Event, 0, len(h.subs))
	for ch := range h.subs {
		subs = append(subs, ch)
	}
	terminal := Status(e.Type).Terminal()
	h.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- e:
		default:
		}
	}
	if terminal {
		close(h.done)
	}
}

// subscribe returns the event history so far plus a live channel; the
// caller must unsubscribe.
func (h *eventHub) subscribe() ([]Event, chan Event) {
	ch := make(chan Event, 64)
	h.mu.Lock()
	defer h.mu.Unlock()
	replay := make([]Event, len(h.history))
	copy(replay, h.history)
	h.subs[ch] = struct{}{}
	return replay, ch
}

func (h *eventHub) unsubscribe(ch chan Event) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// streamEvents serves one SSE connection: the family's event history
// replays first, then live events until a terminal frame or client
// disconnect.
func streamEvents(w http.ResponseWriter, r *http.Request, f *family) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported", 0)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live := f.subscribe()
	defer f.unsubscribe(live)
	writeEvent := func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return !Status(e.Type).Terminal()
	}
	for _, e := range replay {
		if !writeEvent(e) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-live:
			if !writeEvent(e) {
				return
			}
		}
	}
}

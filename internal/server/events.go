package server

// eventHub is a family's publish/subscribe core: a bounded replayable
// event history plus live fan-out to SSE subscribers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/runspec"
)

// eventHub carries one family's event stream. The zero value is not
// ready; use newEventHub.
type eventHub struct {
	mu      sync.Mutex
	seq     int
	history []storedEvent
	// subs is allocated by the first subscribe: most families settle
	// without ever being streamed.
	subs map[chan Event]struct{}
	done chan struct{}
}

func newEventHub() eventHub {
	return eventHub{done: make(chan struct{})}
}

// storedEvent is an Event as the replay buffer keeps it — 40 bytes
// against 104: a daemon retains every settled family, so what a family's
// history costs is what a served job costs in resident memory. Type and
// Phase come from small closed sets and are interned to a byte; Seq,
// Iteration and Point fit 32 bits (a family publishing 2³² frames would
// take hours at one per microsecond); Operator and Error, absent from
// almost every frame, sit behind one pointer. expand is the exact
// inverse, so replay content is unchanged.
type storedEvent struct {
	energy, value         float64
	rare                  *rareFields
	seq, iteration, point uint32
	typ, phase            uint8
}

// rareFields are the strings few frames carry, plus a Type or Phase the
// intern table does not know (nameOther).
type rareFields struct {
	operator, err, typ, phase string
}

// eventNames is the intern table for Event.Type and Event.Phase.
var eventNames = [...]string{
	"", string(StatusQueued), string(StatusRunning), "progress", EventRetrying,
	string(StatusDone), string(StatusFailed), string(StatusInterrupted), string(StatusCancelled),
	EventPointDone, EventPointFailed,
	"setup", runspec.AlgorithmVQE, runspec.AlgorithmAdapt, runspec.AlgorithmQPE,
}

// nameOther marks a name outside eventNames; it is kept in rareFields.
const nameOther = 0xff

// progressCode is the interned "progress": the one type publish evicts.
var progressCode = nameCode("progress")

func nameCode(name string) uint8 {
	for i, n := range eventNames {
		if n == name {
			return uint8(i)
		}
	}
	return nameOther
}

func compactEvent(e Event) storedEvent {
	se := storedEvent{
		energy: e.Energy, value: e.Value,
		seq: uint32(e.Seq), iteration: uint32(e.Iteration), point: uint32(e.Point),
		typ: nameCode(e.Type), phase: nameCode(e.Phase),
	}
	if e.Operator != "" || e.Error != "" || se.typ == nameOther || se.phase == nameOther {
		se.rare = &rareFields{operator: e.Operator, err: e.Error}
		if se.typ == nameOther {
			se.rare.typ = e.Type
		}
		if se.phase == nameOther {
			se.rare.phase = e.Phase
		}
	}
	return se
}

func (se storedEvent) expand() Event {
	e := Event{
		Seq: int(se.seq), Iteration: int(se.iteration), Point: int(se.point),
		Energy: se.energy, Value: se.value,
	}
	if se.rare != nil {
		e.Operator, e.Error, e.Type, e.Phase = se.rare.operator, se.rare.err, se.rare.typ, se.rare.phase
	}
	if se.typ != nameOther {
		e.Type = eventNames[se.typ]
	}
	if se.phase != nameOther {
		e.Phase = eventNames[se.phase]
	}
	return e
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
			if old.typ == progressCode {
				h.history = append(h.history[:i], h.history[i+1:]...)
				break
			}
		}
	}
	h.history = append(h.history, compactEvent(e))
	terminal := Status(e.Type).Terminal()
	if terminal {
		// Nothing follows a terminal frame: give back the append slack.
		h.history = append(make([]storedEvent, 0, len(h.history)), h.history...)
	}
	subs := make([]chan Event, 0, len(h.subs))
	for ch := range h.subs {
		subs = append(subs, ch)
	}
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
	for i, se := range h.history {
		replay[i] = se.expand()
	}
	if h.subs == nil {
		h.subs = map[chan Event]struct{}{}
	}
	h.subs[ch] = struct{}{}
	return replay, ch
}

func (h *eventHub) unsubscribe(ch chan Event) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// since returns the history after sequence number seq.
func (h *eventHub) since(seq int) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Event
	for _, se := range h.history {
		if int(se.seq) > seq {
			out = append(out, se.expand())
		}
	}
	return out
}

// streamEvents serves one SSE connection: the family's event history
// replays first, then live events until a terminal frame or client
// disconnect. A subscriber that fell more than its buffer behind has lost
// live frames, possibly the terminal one; once the family is terminal the
// rest of the stream comes from the history, which holds that frame.
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
	written := 0 // the highest seq written: concurrent publishes may hand frames over out of order
	writeEvent := func(e Event) bool {
		written = max(written, e.Seq)
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
		case <-f.done:
			for _, e := range f.since(written) {
				if !writeEvent(e) {
					return
				}
			}
			return
		}
	}
}

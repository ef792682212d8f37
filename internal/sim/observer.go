package sim

import (
	"fmt"

	"repro/internal/transport"
)

// EventType discriminates the streaming events a Runner reports.
type EventType int

// Event types, in the order a run produces them.
const (
	// EventDeliver fires once per delivery, before the handler runs.
	EventDeliver EventType = iota + 1
	// EventHold fires when a freshly sent message is withheld by the
	// configured hold rule instead of becoming deliverable.
	EventHold
	// EventRelease fires when withheld messages re-enter the pending pool;
	// Count is how many were released.
	EventRelease
	// EventRound fires when a handler records a new per-round value (one
	// event per completed round, per history-recording node).
	EventRound
)

// String names the event type for renderings and logs.
func (t EventType) String() string {
	switch t {
	case EventDeliver:
		return "deliver"
	case EventHold:
		return "hold"
	case EventRelease:
		return "release"
	case EventRound:
		return "round"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one observation from a running execution. Step is the delivery
// count at emission time. Message is set for EventDeliver and EventHold;
// Count for EventRelease; Node, Round and Value for EventRound.
type Event struct {
	Type    EventType
	Step    int
	Message transport.Message
	Count   int
	Node    int
	Round   int
	Value   float64
}

// Observer receives streaming events from a Runner as the execution
// progresses — live metrics, progress bars, JSONL emitters — without
// waiting for the post-hoc result. Observe is called synchronously from the
// delivery loop on the runner's goroutine: implementations must not call
// back into the Runner and should return quickly. A nil observer costs the
// run nothing (a single pointer test per delivery).
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// historyProvider is implemented by protocol machines that record per-round
// state values; the runner streams growth of that history as EventRound.
type historyProvider interface{ History() []float64 }

// roundWatch tracks how much of each handler's round history has already
// been streamed, so each completed round is reported exactly once.
type roundWatch struct {
	seen []int
}

func newRoundWatch(n int) *roundWatch { return &roundWatch{seen: make([]int, n)} }

// emit streams any rounds node has recorded since the last check.
func (w *roundWatch) emit(node int, h Handler, step int, obs Observer) {
	hp, ok := h.(historyProvider)
	if !ok {
		return
	}
	hist := hp.History()
	for r := w.seen[node]; r < len(hist); r++ {
		obs.Observe(Event{Type: EventRound, Step: step, Node: node, Round: r + 1, Value: hist[r]})
	}
	w.seen[node] = len(hist)
}

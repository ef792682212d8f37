package rbc

import (
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// boundTags is the slot map of the bounded-state test: "t0".."t2".
const boundTags = 3

func boundTagIndex(tag string) int {
	if len(tag) == 2 && tag[0] == 't' && tag[1] >= '0' && tag[1] < '0'+boundTags {
		return int(tag[1] - '0')
	}
	return -1
}

// boundNode is an honest endpoint; node 0 broadcasts under "t0".
type boundNode struct {
	id        int
	b         *Broadcaster
	delivered []Delivery
}

func (h *boundNode) ID() int { return h.id }

func (h *boundNode) Start(out *sim.Outbox) {
	if h.id == 0 {
		h.delivered = append(h.delivered, h.b.Broadcast("t0", Num(7), out)...)
	}
}

func (h *boundNode) Deliver(m transport.Message, out *sim.Outbox) {
	h.delivered = append(h.delivered, h.b.Handle(m, out)...)
}

func (h *boundNode) Output() (float64, bool) { return 0, len(h.delivered) > 0 }

// flooder is the Byzantine vertex: at start it sends every honest node
// `frames` RBC messages, none of which an honest sender would emit.
type flooder struct {
	id, n, frames int
}

func (a *flooder) ID() int { return a.id }

func (a *flooder) Start(out *sim.Outbox) {
	for i := 0; i < a.frames; i++ {
		phase := PhaseEcho + Phase(i&1) // ECHO, READY alternating
		var m Msg
		switch i % 5 {
		case 0: // a tag no machine uses, different every time
			m = Msg{Phase: phase, Origin: 0, Tag: "junk" + strconv.Itoa(i), Content: Num(i)}
		case 1: // non-canonical spellings of a live tag
			m = Msg{Phase: phase, Origin: 0, Tag: "t00", Content: Num(i)}
		case 2: // origins outside [0, n)
			m = Msg{Phase: phase, Origin: a.n + i, Tag: "t0", Content: Num(i)}
		case 3: // the live slot, a fresh content every time
			m = Msg{Phase: phase, Origin: 0, Tag: "t0", Content: Num(i)}
		case 4: // an idle slot, a fresh content every time, plus forged INITs
			m = Msg{Phase: PhaseInit + Phase(i%3), Origin: 1, Tag: "t2", Content: Num(i)}
		}
		out.Broadcast(m)
	}
}

func (a *flooder) Deliver(transport.Message, *sim.Outbox) {}
func (a *flooder) Output() (float64, bool)                { return 0, false }

// TestRBCBoundedState: whatever one faulty sender pushes — here 10 000
// frames per honest node — a Broadcaster holds at most tags·n slots and
// 2n+1 contents per slot, counts what it discards, and still delivers the
// honest broadcast running in the same slot space.
func TestRBCBoundedState(t *testing.T) {
	const n, f, frames = 4, 1, 10000
	g := graph.Clique(n)
	handlers := make([]sim.Handler, n)
	honest := make([]*boundNode, n-1)
	for i := range honest {
		b, err := New(n, f, i, boundTags, boundTagIndex)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = &boundNode{id: i, b: b}
		handlers[i] = honest[i]
	}
	handlers[n-1] = &flooder{id: n - 1, n: n, frames: frames}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(5)}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range honest {
		if len(h.delivered) != 1 || h.delivered[0].Origin != 0 || !h.delivered[0].Content.Equal(Num(7)) {
			t.Errorf("node %d delivered %v, want exactly node 0's broadcast of 7", h.id, h.delivered)
		}
		if len(h.b.slots) != boundTags*n {
			t.Errorf("node %d holds %d slot entries, want the fixed %d", h.id, len(h.b.slots), boundTags*n)
		}
		live := 0
		for i, s := range h.b.slots {
			if s == nil {
				continue
			}
			live++
			if len(s.contents) > 2*n+1 {
				t.Errorf("node %d slot %d interned %d contents, bound is 2n+1 = %d", h.id, i, len(s.contents), 2*n+1)
			}
		}
		// "t0"/0 (live) and "t2"/1 (flooded) are the only slots touched.
		if live != 2 {
			t.Errorf("node %d allocated %d slots, want 2", h.id, live)
		}
		// The flooder is one sender: per slot at most its first ECHO and
		// first READY count, so all but 4 of its frames are drops.
		if got := h.b.Dropped(); got < frames-4 {
			t.Errorf("node %d counted %d drops, want at least %d", h.id, got, frames-4)
		}
	}
}

package adversary

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aba"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestValuedRoundTrip: every transport.Valued payload reports the value it
// carries and its origin flag, and a copy carrying another value reports
// that value under the same flag and turns back into the original.
func TestValuedRoundTrip(t *testing.T) {
	for _, c := range []struct {
		p   transport.Valued
		own bool
	}{
		{bw.ValPayload{Round: 2, Value: 1.5, Entry: 0}, true},
		{bw.ValPayload{Round: 2, Value: 1.5, Entry: 3}, false},
		{iterative.ValPayload{Round: 2, Value: 1.5}, true},
		{rbc.Msg{Phase: rbc.PhaseInit, Origin: 1, Tag: "v", Content: rbc.Num(1.5)}, true},
		{rbc.Msg{Phase: rbc.PhaseEcho, Origin: 2, Tag: "v", Content: rbc.Num(1.5)}, false},
		{rbc.Msg{Phase: rbc.PhaseReady, Origin: 2, Tag: "v", Content: rbc.Num(1.5)}, false},
	} {
		if x, own, ok := c.p.Carried(); !ok || x != 1.5 || own != c.own {
			t.Errorf("%#v carries (%v, own %v, ok %v), want (1.5, own %v, ok true)", c.p, x, own, ok, c.own)
		}
		forged := c.p.WithCarried(-7).(transport.Valued)
		if x, own, ok := forged.Carried(); !ok || x != -7 || own != c.own {
			t.Errorf("%#v forged to -7 carries (%v, own %v, ok %v)", c.p, x, own, ok)
		}
		if back := forged.WithCarried(1.5); back != transport.Payload(c.p) {
			t.Errorf("%#v forged and restored is %#v", c.p, back)
		}
	}
}

// word is an RBC content that is not a number.
type word string

func (w word) Equal(c rbc.Content) bool { return c == rbc.Content(w) }

// mutate arms the kind's defaults around a machine whose one send is p to
// vertex to, and returns what goes out in its place.
func mutate(t *testing.T, kind string, to int, p transport.Payload) []transport.Payload {
	t.Helper()
	h, err := BuildHandler(1, Spec{Kind: kind}, sender{to, p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := sim.NewCollector(1, graph.Clique(4))
	h.Start(col)
	var out []transport.Payload
	for _, m := range col.Messages() {
		out = append(out, m.Payload)
	}
	return out
}

// sender is vertex 1's machine: it sends p to vertex to on Start.
type sender struct {
	to int
	p  transport.Payload
}

func (sender) ID() int                                { return 1 }
func (s sender) Start(out *sim.Outbox)                { out.Send(s.to, s.p) }
func (sender) Deliver(transport.Message, *sim.Outbox) {}
func (sender) Output() (float64, bool)                { return 0, false }

// TestValueKindsActThroughHook: extreme and split forge the value of
// iterative's VAL and of an RBC INIT with a number; tamper forges the
// number an RBC ECHO relays and leaves the originations alone.
func TestValueKindsActThroughHook(t *testing.T) {
	iter := iterative.ValPayload{Round: 3, Value: 1.5}
	initMsg := rbc.Msg{Phase: rbc.PhaseInit, Origin: 1, Tag: "v", Content: rbc.Num(1.5)}
	echo := rbc.Msg{Phase: rbc.PhaseEcho, Origin: 2, Tag: "v", Content: rbc.Num(1.5)}
	for _, c := range []struct {
		kind string
		to   int
		in   transport.Payload
		want transport.Payload
	}{
		{"extreme", 2, iter, iterative.ValPayload{Round: 3, Value: 1e9}},
		{"extreme", 2, initMsg, rbc.Msg{Phase: rbc.PhaseInit, Origin: 1, Tag: "v", Content: rbc.Num(1e9)}},
		{"extreme", 2, echo, echo},
		{"split", 0, iter, iterative.ValPayload{Round: 3, Value: -1e6}},
		{"split", 2, iter, iterative.ValPayload{Round: 3, Value: 1e6}},
		{"split", 2, initMsg, rbc.Msg{Phase: rbc.PhaseInit, Origin: 1, Tag: "v", Content: rbc.Num(1e6)}},
		{"tamper", 2, iter, iter},
		{"tamper", 2, initMsg, initMsg},
		{"tamper", 2, echo, rbc.Msg{Phase: rbc.PhaseEcho, Origin: 2, Tag: "v", Content: rbc.Num(-1.5 - 100)}},
	} {
		if got := mutate(t, c.kind, c.to, c.in); !reflect.DeepEqual(got, []transport.Payload{c.want}) {
			t.Errorf("%s to %d on %#v: got %#v, want %#v", c.kind, c.to, c.in, got, c.want)
		}
	}
}

// TestRewritePassesNonValues: an RBC message with a content that is not a
// number and an ABA vote carry no value, so rewrite — the path of every
// value-lying kind — passes both through untouched, own or relayed.
func TestRewritePassesNonValues(t *testing.T) {
	forge := func(*rand.Rand, int, float64) float64 { return 1e9 }
	for _, p := range []transport.Payload{
		rbc.Msg{Phase: rbc.PhaseInit, Origin: 1, Tag: "v", Content: word("hello")},
		rbc.Msg{Phase: rbc.PhaseEcho, Origin: 2, Tag: "v", Content: word("hello")},
		aba.Msg{Inst: 1, Round: 2, Phase: aba.PhaseBval, Value: 1},
	} {
		for _, own := range []bool{true, false} {
			got := rewrite(own, forge)(nil, transport.Message{From: 1, To: 2, Payload: p})
			if !reflect.DeepEqual(got, []transport.Payload{p}) {
				t.Errorf("rewrite(own %v) on %#v: got %#v", own, p, got)
			}
		}
	}
}

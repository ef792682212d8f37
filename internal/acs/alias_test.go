package acs

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestACSTagAliasesAreOneSlot: origin 3's input is settled as 0 under
// ValueTag and as 4 under padded spellings of it. Whichever quorum a
// machine sees first, only the exact tag addresses a slot, so every machine
// holds 0 for origin 3 and the padded frames are counted as dropped.
func TestACSTagAliasesAreOneSlot(t *testing.T) {
	const n, f = 4, 1
	quorum := func(m *Machine, out *sim.Outbox, tag string, v float64) {
		for from := 1; from < n; from++ {
			m.Deliver(transport.Message{From: from, To: 0, Payload: rbc.Msg{
				Phase: rbc.PhaseReady, Origin: 3, Tag: tag, Content: rbc.Num(v)}}, out)
		}
	}
	for _, alias := range []string{ValueTag + " ", " " + ValueTag, ValueTag + "\x00", "acs/V", "acs//v"} {
		for _, aliasFirst := range []bool{false, true} {
			m, err := New(n, f, 0, 1, 2.5)
			if err != nil {
				t.Fatal(err)
			}
			out := sim.NewCollector(0, graph.Clique(n))
			if aliasFirst {
				quorum(m, out, alias, 4)
			}
			quorum(m, out, ValueTag, 0)
			if !aliasFirst {
				quorum(m, out, alias, 4)
			}
			if got := m.values[3]; got == nil || *got != 0 {
				t.Errorf("%q (alias first: %v): origin 3 holds %v, want 0", alias, aliasFirst, got)
			}
			if d := m.bcast.Dropped(); d != n-1 {
				t.Errorf("%q: dropped %d frames, want the alias's %d", alias, d, n-1)
			}
		}
	}
}

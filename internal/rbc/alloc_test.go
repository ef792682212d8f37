package rbc_test

import (
	"testing"

	"repro/internal/aad"
	"repro/internal/graph"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestRBCHandleAllocBudget is the machine-side alloc fence: once a slot
// and its content exist, counting another sender's ECHO or READY toward it
// — and discarding a repeat — allocates nothing, for both content types
// the live tier carries. n is large enough that no threshold (which would
// broadcast, and so allocate) is crossed inside the measured calls.
func TestRBCHandleAllocBudget(t *testing.T) {
	const n, f, runs = 100, 33, 30 // echo threshold 67, ready threshold f+1 = 34
	report := make(aad.Report, n-f)
	for i := range report {
		report[i] = aad.Entry{Origin: i, Value: float64(i)}
	}
	for _, tc := range []struct {
		name    string
		content func() rbc.Content // a fresh, Equal copy per message, as the decoder hands them over
	}{
		{"num", func() rbc.Content { return rbc.Num(2.5) }},
		{"report", func() rbc.Content { return append(aad.Report(nil), report...) }},
	} {
		for _, phase := range []rbc.Phase{rbc.PhaseEcho, rbc.PhaseReady} {
			t.Run(tc.name+"/"+phase.String(), func(t *testing.T) {
				b, err := rbc.New(n, f, 0, 1, oneTag)
				if err != nil {
					t.Fatal(err)
				}
				out := sim.NewCollector(0, graph.Clique(n))
				// Sender 1 opens the slot and interns the content; the
				// measured calls are senders 2.. and then repeats of them.
				msgs := make([]transport.Message, runs+2)
				for i := range msgs {
					msgs[i] = transport.Message{From: i + 1, To: 0, Payload: rbc.Msg{
						Phase: phase, Origin: 5, Tag: "t", Content: tc.content()}}
				}
				b.Handle(msgs[0], out)
				next := 1
				fresh := testing.AllocsPerRun(runs, func() {
					b.Handle(msgs[next], out)
					next++
				})
				if fresh != 0 {
					t.Errorf("counting a new sender allocates %.2f per Handle, want 0", fresh)
				}
				dropped := b.Dropped()
				repeat := testing.AllocsPerRun(runs, func() { b.Handle(msgs[1], out) })
				if repeat != 0 {
					t.Errorf("discarding a repeat allocates %.2f per Handle, want 0", repeat)
				}
				if got := b.Dropped() - dropped; got != runs+1 {
					t.Errorf("%d repeats counted as dropped, want %d", got, runs+1)
				}
				if len(out.Messages()) != 0 {
					t.Errorf("a threshold was crossed inside the measured calls: %d sends", len(out.Messages()))
				}
			})
		}
	}
}

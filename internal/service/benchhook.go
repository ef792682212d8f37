package service

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DispatchBench measures what a frame pays on the way into its machine: a
// pre-peeked burst of same-instance frames through dispatchBatch — run
// grouping, memo/shard lookup, mailbox post — and, because the posting
// goroutine is the instance's runner, on through the node's delivery: full
// decode, sender/edge check and an inert Handler.Deliver. It is an exported
// testing.B function (like cluster.QueueDrainBench) so the repo benchmark
// (bench/, service.dispatch_ns_per_frame) can run it from a normal binary
// while the dispatch internals stay unexported. b.N counts frames; each is
// first copied into a pooled buffer, the cost the real reader pays to hand
// the dispatcher an owned frame.
//
// Not comparable with values recorded before the mailbox (PR 22): that cell
// stopped at the inbox channel and drained it undecoded, 0 allocs/frame; this
// one's 1 alloc/frame is the decode of its bw.ValPayload frame, 2 while BW
// frames spelled their paths out (TestDispatchAllocBudget pins dispatch at
// exactly node.Post's count).
func DispatchBench(b *testing.B) {
	g := graph.Clique(2)
	d := newSkeleton(g)
	const inst = uint64(42<<10 | 1)
	if _, err := d.addIdle(g, inst, benchHandler{id: 1}, nullOut{}); err != nil {
		b.Fatal(err)
	}

	body, err := wire.EncodeInstanceMessage(inst, transport.Message{
		From: 0, To: 1,
		Payload: bw.ValPayload{Round: 2, Value: 0.625, Entry: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	frames := make([][]byte, batch)
	infos := make([]wire.FrameInfo, batch)
	for i := range infos {
		infos[i] = wire.FrameInfo{Inst: inst, From: 0, To: 1}
	}

	round := func(k int) {
		for j := 0; j < k; j++ {
			frames[j] = append(wire.GetBuf(), body...)
		}
		d.dispatchBatch(0, frames[:k], infos[:k])
	}
	round(batch) // warm the frame and slab pools before the fence
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		round(min(batch, b.N-done))
	}
}

// newSkeleton builds vertex 1 of g as a daemon with a routing table and
// nothing else (no fabric, no planes, never started): what DispatchBench and
// the dispatch tests drive dispatchBatch against.
func newSkeleton(g *graph.Graph) *Daemon {
	d := &Daemon{cfg: Config{ID: 1}}
	d.initShards()
	d.memo = make([]atomic.Pointer[instance], g.N())
	d.pendingBy = make([]atomic.Int64, g.N())
	return d
}

// addIdle publishes an idle instance (machine started, empty mailbox)
// whose node wraps h and sends through out: the first poster runs it.
func (d *Daemon) addIdle(g *graph.Graph, inst uint64, h sim.Handler, out node.Outbound) (*instance, error) {
	ins := &instance{inst: inst, protocol: "bench", started: time.Now()}
	var err error
	if ins.nd, err = node.New(node.Config{ID: d.cfg.ID, Graph: g, Handler: h, Out: out}); err != nil {
		return nil, err
	}
	d.shard(inst).instances[inst] = ins
	ins.nd.Start(func(err error, late int) { d.finish(ins, err, late) })
	return ins, nil
}

// benchHandler is an inert protocol machine: it accepts every delivery and
// sends nothing.
type benchHandler struct{ id int }

func (h benchHandler) ID() int                              { return h.id }
func (benchHandler) Start(*sim.Outbox)                      {}
func (benchHandler) Deliver(transport.Message, *sim.Outbox) {}
func (benchHandler) Output() (float64, bool)                { return 0, false }

// nullOut discards outbound frames (the machine never sends).
type nullOut struct{}

func (nullOut) Send(_ int, frame []byte) error { wire.PutBuf(frame); return nil }

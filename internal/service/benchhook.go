package service

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DispatchBench measures the daemon's batched inbound dispatch in
// isolation: a pre-peeked burst of same-instance frames through
// dispatchBatch — run grouping, memo/shard lookup, ready gate, one slab
// push into the instance inbox — and back out through the inbox drain. It
// is an exported testing.B function (like cluster.QueueDrainBench) so the
// repo benchmark (bench/, service.dispatch_ns_per_frame) can run it through
// testing.Benchmark from a normal binary while the dispatch internals stay
// unexported.
//
// The harness is a daemon skeleton (routing table + one running
// instance), no fabric or planes; one goroutine both dispatches and
// drains, so every Get finds what the last Put left in the processor-local
// frame and slab pools — the alloc fence pins it at 0 allocs/op. b.N counts
// frames; each dispatched frame is re-encoded into a pooled buffer first (a
// GetBuf and a copy), which is the cost the real reader pays to hand the
// dispatcher an owned frame, so ns/frame includes it.
func DispatchBench(b *testing.B) {
	g := graph.Clique(2)
	d := &Daemon{cfg: Config{ID: 1, PendingCap: DefaultPendingCap}}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.instances = make(map[uint64]*instance)
		sh.retired = make(map[uint64]struct{})
		sh.decisions = make(map[uint64]Decision)
		sh.pending = make(map[uint64][]node.Inbound)
	}
	d.memo = make([]atomic.Pointer[instance], g.N())

	const inst = uint64(42<<10 | 1)
	nd, err := node.New(node.Config{
		ID: 1, Graph: g, Handler: benchHandler{id: 1}, Out: nullOut{},
		// The drain keeps pace within each iteration; a few slabs of slack.
		InboxCap: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	ictx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ins := &instance{
		inst: inst, protocol: "bench", nd: nd,
		cancel: cancel, ictx: ictx, ready: make(chan struct{}),
	}
	close(ins.ready) // no pre-open backlog: the gate is open
	sh := d.shard(inst)
	sh.instances[inst] = ins

	body, err := wire.EncodeInstanceMessage(inst, transport.Message{
		From: 0, To: 1,
		Payload: bw.ValPayload{Round: 2, Value: 0.625, Path: graph.Path{0, 1}},
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
		for drained := 0; drained < k; {
			slab, ok := nd.ReceiveBatch(ictx)
			if !ok {
				b.Fatal("inbox drain cancelled mid-bench")
			}
			for _, in := range slab {
				wire.PutBuf(in.Frame)
			}
			drained += len(slab)
			node.PutSlab(slab)
		}
	}
	round(batch) // warm the frame and slab pools before the fence
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := batch
		if done+k > b.N {
			k = b.N - done
		}
		round(k)
		done += k
	}
}

// benchHandler is an inert protocol machine: DispatchBench never runs the
// node's event loop, so it only has to satisfy construction.
type benchHandler struct{ id int }

func (h benchHandler) ID() int                              { return h.id }
func (benchHandler) Start(*sim.Outbox)                      {}
func (benchHandler) Deliver(transport.Message, *sim.Outbox) {}
func (benchHandler) Output() (float64, bool)                { return 0, false }

// nullOut discards outbound frames (the machine never sends).
type nullOut struct{}

func (nullOut) Send(_ int, frame []byte) error { wire.PutBuf(frame); return nil }

package node_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/node"
)

// TestPoolBandsAndForeignSlices is the slab pool's half of the wire test
// of the same name: slabs outside the [8, 1024] capacity band — nil, a test
// literal, a daemon's 4096-entry pending buffer — are inert on release, and
// the pool only ever hands out empty in-band slabs.
func TestPoolBandsAndForeignSlices(t *testing.T) {
	frame := make([]byte, 18)
	literal := []node.Inbound{{From: 1, Frame: frame}}
	foreign := [][]node.Inbound{
		nil,
		literal,
		make([]node.Inbound, 3, 7),
		make([]node.Inbound, 3, 4096),
	}
	for _, f := range foreign {
		node.PutSlab(f)
		// LIFO: had f been pooled, the very next takers would be handed it.
		for i := 0; i < 4; i++ {
			s := node.GetSlab()
			if len(s) != 0 || cap(s) < 8 || cap(s) > 1024 {
				t.Fatalf("after releasing a cap-%d slab: GetSlab returned len %d cap %d", cap(f), len(s), cap(s))
			}
		}
	}
	if literal[0].Frame == nil {
		t.Fatal("PutSlab cleared a slab it does not pool")
	}
}

// TestGetSlabIsZeroed: PutSlab clears every entry before pooling, so a
// parked slab pins no frame buffer and the next owner — looking at the
// whole capacity, as an append will — finds no stale frame in it.
func TestGetSlabIsZeroed(t *testing.T) {
	frame := make([]byte, 18)
	for round := 0; round < 8; round++ {
		slab := node.GetSlab()
		for i := 0; i < cap(slab); i++ {
			slab = append(slab, node.Inbound{From: i + 1, Frame: frame})
		}
		node.PutSlab(slab)
		got := node.GetSlab()
		if len(got) != 0 {
			t.Fatalf("GetSlab returned %d live entries", len(got))
		}
		for i, in := range got[:cap(got)] {
			if in.From != 0 || in.Frame != nil {
				t.Fatalf("round %d: pooled slab entry %d still holds %+v", round, i, in)
			}
		}
	}
}

// slabSink keeps the consumers' reads of each slab observable.
var slabSink atomic.Uint32

// BenchmarkSlabPoolHandoff is wire's BenchmarkFramePoolHandoff for the slab
// pool: eight producers GetSlab and fill eight entries (a transport
// wrapping one read burst), eight consumers walk the slab and PutSlab it
// (the event loop). An op is one slab; run it with -cpu 2. Steady state
// allocates nothing.
func BenchmarkSlabPoolHandoff(b *testing.B) {
	const workers, burstLen = 8, 8
	frame := make([]byte, 18)
	slabs := (b.N + workers - 1) / workers
	ch := make(chan []node.Inbound, workers)
	var producers, consumers sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			var sum int
			for slab := range ch {
				for _, in := range slab {
					sum += in.From + len(in.Frame)
				}
				node.PutSlab(slab)
			}
			slabSink.Add(uint32(sum))
		}()
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			for i := 0; i < slabs; i++ {
				slab := node.GetSlab()
				for j := 0; j < burstLen; j++ {
					slab = append(slab, node.Inbound{From: w, Frame: frame})
				}
				ch <- slab
			}
		}(w)
	}
	producers.Wait()
	close(ch)
	consumers.Wait()
}

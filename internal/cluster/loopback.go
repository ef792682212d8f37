package cluster

import (
	"fmt"
	"sync"

	"context"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/wire"
)

// loopback is the in-process transport: one bounded frame queue per
// directed edge (see queue — push blocks when a peer falls DefaultQueueCap
// frames behind), one pump goroutine per edge moving frames into the
// receiver's inbox. Per-edge order is FIFO (the reliable-link assumption);
// the interleaving across edges is whatever the Go scheduler produces — a
// legal asynchronous schedule, different from the simulator's seeded one.
type loopback struct {
	g      *graph.Graph
	edges  map[[2]int]*queue[[]byte]
	stopMu sync.Once
	wg     sync.WaitGroup
}

func newLoopback(g *graph.Graph) (transportDriver, error) {
	lb := &loopback{g: g, edges: make(map[[2]int]*queue[[]byte], g.M())}
	for _, e := range g.Edges() {
		lb.edges[e] = newQueue[[]byte](0)
	}
	return lb, nil
}

func (lb *loopback) name() string { return "loopback" }

// loopLink is one vertex's outbound view of the loopback medium.
type loopLink struct {
	lb   *loopback
	from int
}

func (l loopLink) Send(to int, frame []byte) error {
	q, ok := l.lb.edges[[2]int{l.from, to}]
	if !ok {
		// Outboxes already drop non-edge sends; reaching here is a harness
		// bug, not adversarial behavior.
		return fmt.Errorf("cluster: loopback send over non-edge %d->%d", l.from, to)
	}
	// A push against a closed queue means the run is shutting down; the
	// frame is shed (and released) like any message still in flight at the
	// end of a run. Ownership transfers to the medium either way.
	if !q.push(frame) {
		wire.PutBuf(frame)
	}
	return nil
}

func (lb *loopback) link(id int) node.Outbound { return loopLink{lb: lb, from: id} }

func (lb *loopback) start(ctx context.Context, nodes []*node.Node) {
	for e, q := range lb.edges {
		from, to := e[0], e[1]
		lb.wg.Add(1)
		go func(q *queue[[]byte], from int, nd *node.Node) {
			defer lb.wg.Done()
			// Drain in batches — one queue lock round-trip per burst — and
			// forward each burst as one inbox slab (one channel op); per-edge
			// FIFO is preserved because this pump is the edge's only consumer
			// and the slab keeps pop order.
			batch := make([][]byte, 0, maxBatchFrames)
			for {
				var ok bool
				if batch, ok = q.popBatch(batch); !ok {
					return
				}
				if !pushFrames(ctx, nd, from, batch) {
					return
				}
			}
		}(q, from, nodes[to])
	}
	// Close the queues when the run context ends so pumps blocked in pop
	// wake up.
	go func() {
		<-ctx.Done()
		for _, q := range lb.edges {
			q.close()
		}
	}()
}

func (lb *loopback) stop() {
	lb.stopMu.Do(func() {
		for _, q := range lb.edges {
			q.close()
		}
		lb.wg.Wait()
	})
}

func (lb *loopback) queueStats() QueueStats {
	var s QueueStats
	for _, q := range lb.edges {
		s.add(q.snapshot())
	}
	return s
}

package cluster

import (
	"context"
	"net"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/wire"
)

// The one-shot TCP runtime is a Mux fleet whose every frame carries
// instance id 0: each vertex owns one Mux (see mux.go for the hello, the
// per-edge FIFO writers and the reconnect discipline), the Mux is the
// node's Outbound, and its reader bursts land in the node's inbox one
// slab per burst.

// oneShot is one vertex of a one-shot run: its Mux and the node whose
// inbox the Mux's readers feed.
type oneShot struct {
	mux *Mux
	// ctx and nd are bound by tcpNetwork.start, before the Mux launches any
	// reader (the Mux must exist first: it is the Outbound the node is
	// built on).
	ctx context.Context
	nd  *node.Node
}

// push forwards one read burst to the node as one slab. The node decodes
// every frame in full (and counts the malformed ones), so the peeked infos
// go unused. A refused burst (the node has shut down) is released by
// pushFrames; the reader stops when the Mux does.
func (o *oneShot) push(from int, frames [][]byte, _ []wire.FrameInfo) {
	pushFrames(o.ctx, o.nd, from, frames)
}

// tcpNetwork is the runtime's transportDriver: one oneShot per vertex,
// listeners bound up front on ephemeral ports so addresses are discovered
// before anything dials.
type tcpNetwork struct {
	vertices []*oneShot
}

func newTCPNetwork(g *graph.Graph) (transportDriver, error) {
	n := g.N()
	listeners := make([]net.Listener, 0, n)
	closeAll := func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	tn := &tcpNetwork{vertices: make([]*oneShot, n)}
	for i := range tn.vertices {
		o := &oneShot{}
		var err error
		o.mux, err = NewMux(MuxConfig{ID: i, Graph: g, Listener: listeners[i], Peers: addrs, OnFrameBatch: o.push})
		if err != nil {
			closeAll()
			return nil, err
		}
		tn.vertices[i] = o
	}
	return tn, nil
}

func (tn *tcpNetwork) name() string { return "tcp" }

func (tn *tcpNetwork) link(id int) node.Outbound { return tn.vertices[id].mux }

func (tn *tcpNetwork) start(ctx context.Context, nodes []*node.Node) {
	for i, o := range tn.vertices {
		o.ctx, o.nd = ctx, nodes[i]
		o.mux.Start(ctx)
	}
}

func (tn *tcpNetwork) stop() {
	for _, o := range tn.vertices {
		o.mux.Stop()
	}
}

func (tn *tcpNetwork) queueStats() QueueStats {
	var s QueueStats
	for _, o := range tn.vertices {
		s.add(o.mux.QueueStats())
	}
	return s
}

package cluster

import (
	"context"
	"net"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/wire"
)

// Both one-shot runtimes are a Mux fleet whose every frame carries
// instance id 0: each vertex owns one Mux (see mux.go for the one
// connection per linked pair, the hello, the per-edge FIFO writers and the
// reconnect discipline), the Mux is the node's Outbound, and its readers
// post their bursts to the node's mailbox. The runtimes differ only in the medium under the Mux:
// localhost TCP sockets (RunTCP) or the in-process memNetwork
// (RunLoopback).

// medium is what a runtime lays under its fleet: how each vertex binds a
// listener, and how a Mux dials a peer's address (nil = TCP).
type medium struct {
	name   string
	listen func() (net.Listener, error)
	dial   func(ctx context.Context, addr string) (net.Conn, error)
}

// listenTCP binds an ephemeral localhost port whose connections close
// abortively (see abortOnClose).
func listenTCP() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return abortListener{ln}, nil
}

// dialTCP dials a peer's listener; the connection closes abortively.
func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	abortOnClose(c)
	return c, nil
}

// abortOnClose makes closing c reset the connection rather than shut it
// down gracefully. A one-shot fleet is torn down only once its run is
// over, so nothing still in flight is needed, and a graceful close leaves
// a TIME_WAIT socket behind for every connection: at tens of runs per
// second the kernel's table of them fills, and every later connect on the
// host slows.
func abortOnClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // best effort: a graceful close is still correct
	}
}

// abortListener is a listener whose accepted connections close abortively.
type abortListener struct{ net.Listener }

func (l abortListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		abortOnClose(c)
	}
	return c, err
}

// oneShot is one vertex of a one-shot run: its Mux and the node whose
// mailbox the Mux's readers post to.
type oneShot struct {
	mux *Mux
	// nd is bound by fleet.start, before the Mux launches any reader (the
	// Mux must exist first: it is the Outbound the node is built on).
	nd *node.Node
}

// push posts one read burst to the node, arrival order kept. The node
// decodes every frame in full (and counts the malformed ones), so the
// peeked infos go unused. A refused burst (the node is closed) is
// released here, and the reader stops when the Mux does.
func (o *oneShot) push(from int, frames [][]byte, _ []wire.FrameInfo) {
	if !o.nd.Post(from, frames) {
		releaseFrames(frames)
	}
}

// fleet is a run's transport: one oneShot per vertex, listeners bound up
// front so addresses are known before anything dials. Every Mux gets every
// address and dials the higher-id neighbours it links with.
type fleet []*oneShot

func newFleet(g *graph.Graph, md medium) (fleet, error) {
	n := g.N()
	listeners := make([]net.Listener, 0, n)
	closeAll := func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := md.listen()
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	fl := make(fleet, n)
	for i := range fl {
		o := &oneShot{}
		var err error
		o.mux, err = NewMux(MuxConfig{ID: i, Graph: g, Listener: listeners[i], Peers: addrs, Dial: md.dial, OnFrameBatch: o.push})
		if err != nil {
			closeAll()
			return nil, err
		}
		fl[i] = o
	}
	return fl, nil
}

func (fl fleet) start(ctx context.Context, nodes []*node.Node) {
	for i, o := range fl {
		o.nd = nodes[i]
		o.mux.Start(ctx)
	}
}

// stop tears every Mux down, listeners included; it is idempotent and
// legal before start.
func (fl fleet) stop() {
	for _, o := range fl {
		o.mux.Stop()
	}
}

func (fl fleet) queueStats() QueueStats {
	var s QueueStats
	for _, o := range fl {
		s.add(o.mux.QueueStats())
	}
	return s
}

package cluster

import (
	"context"
	"fmt"
	"net"
	"strconv"

	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The one-shot TCP runtime is a Mux fleet whose every frame carries
// instance id 0: each vertex owns one Mux (see mux.go for the hello, the
// per-edge FIFO writers and the reconnect discipline), the Mux is the
// node's Outbound, and its reader bursts land in the node's inbox one
// slab per burst. Nothing here touches a socket except Listen.

// Listen binds a TCP listener on addr. When the port is taken and non-zero,
// it retries the next `attempts-1` consecutive ports — the port-collision
// fallback multi-process runs on one host need. The bound address is
// recoverable from the listener.
func Listen(addr string, attempts int) (net.Listener, error) {
	if attempts < 1 {
		attempts = 1
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen address %q: bad port: %w", addr, err)
	}
	if port == 0 {
		attempts = 1 // the kernel picks; collisions cannot happen
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		ln, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(port+i)))
		if err == nil {
			return ln, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: no free port in %d attempts from %s: %w", attempts, addr, lastErr)
}

// oneShot is one vertex of a one-shot run: its Mux and the node whose
// inbox the Mux's readers feed.
type oneShot struct {
	mux *Mux
	// ctx and nd are bound by start, before the Mux launches any reader
	// (the Mux must exist first: it is the Outbound the node is built on).
	ctx context.Context
	nd  *node.Node
}

// newOneShot builds the vertex's Mux over ln. On error the caller still
// owns ln.
func newOneShot(id int, g *graph.Graph, ln net.Listener, peers map[int]string) (*oneShot, error) {
	o := &oneShot{}
	var err error
	o.mux, err = NewMux(MuxConfig{ID: id, Graph: g, Listener: ln, Peers: peers, OnFrameBatch: o.push})
	if err != nil {
		return nil, err
	}
	return o, nil
}

func (o *oneShot) start(ctx context.Context, nd *node.Node) {
	o.ctx, o.nd = ctx, nd
	o.mux.Start(ctx)
}

// push forwards one read burst to the node as one slab. The node decodes
// every frame in full (and counts the malformed ones), so the peeked infos
// go unused. A refused burst (the node has shut down) is released by
// pushFrames; the reader stops when the Mux does.
func (o *oneShot) push(from int, frames [][]byte, _ []wire.FrameInfo) {
	pushFrames(o.ctx, o.nd, from, frames)
}

// tcpNetwork is the in-process harness form of the runtime: one oneShot
// per vertex, listeners bound up front on ephemeral ports so addresses are
// discovered before anything dials.
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
		ln, err := Listen("127.0.0.1:0", 1)
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	tn := &tcpNetwork{vertices: make([]*oneShot, n)}
	for i := range tn.vertices {
		o, err := newOneShot(i, g, listeners[i], addrs)
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
		o.start(ctx, nodes[i])
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

// JoinConfig describes one vertex joining a (possibly multi-process) TCP
// cluster: its own machine, where to listen for in-edges, and where to
// find the vertices it has out-edges to.
type JoinConfig struct {
	ID      int
	Graph   *graph.Graph
	Handler sim.Handler
	// Listener, when non-nil, is used as-is (the harness path). Otherwise
	// Listen ("host:port"; empty means 127.0.0.1:0) is bound with
	// ListenAttempts consecutive-port fallback.
	Listener       net.Listener
	Listen         string
	ListenAttempts int
	// Peers maps every out-neighbor of ID to its dial address.
	Peers map[int]string
	// LinkFaults, when non-nil, applies per-edge link failures to this
	// vertex's outbound frames (see FaultyOutbound). Every member of a
	// multi-process cluster compiles the same rule set from the shared
	// scenario; each consults only its own out-edges, so the per-edge
	// seeded streams agree across processes.
	LinkFaults *linkfault.Set
	// Observer and OnDecide are passed to the node runtime.
	Observer sim.Observer
	OnDecide func(id int, output float64)
	// OnListen, when non-nil, is invoked with the bound listen address
	// before any dialing starts (operators log it; tests discover fallback
	// ports through it).
	OnListen func(addr string)
}

// NodeOutcome reports one vertex's run.
type NodeOutcome struct {
	ID      int
	Output  float64
	Decided bool
	Addr    string
	Stats   node.Stats
}

// JoinTCP runs one vertex of a TCP cluster until ctx ends (the caller
// decides how long to keep serving after deciding — in the asynchronous
// model honest nodes keep relaying for their peers). It returns the
// vertex's outcome; cancellation is the normal exit and is not an error.
func JoinTCP(ctx context.Context, cfg JoinConfig) (*NodeOutcome, error) {
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		if ln, err = Listen(addr, cfg.ListenAttempts); err != nil {
			return nil, err
		}
	}
	o, err := newOneShot(cfg.ID, cfg.Graph, ln, cfg.Peers)
	if err != nil {
		ln.Close()
		return nil, err
	}
	// Stop is safe before Start and closes the listener, so every return
	// below releases what was bound above.
	defer o.mux.Stop()
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr().String())
	}
	nd, err := node.New(node.Config{
		ID:       cfg.ID,
		Graph:    cfg.Graph,
		Handler:  cfg.Handler,
		Out:      FaultyOutbound(o.mux, cfg.LinkFaults, cfg.ID),
		Observer: cfg.Observer,
		OnDecide: cfg.OnDecide,
	})
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	o.start(runCtx, nd)
	runErr := nd.Run(runCtx)
	out := &NodeOutcome{ID: cfg.ID, Addr: ln.Addr().String(), Stats: nd.Stats()}
	out.Output, out.Decided = nd.Output()
	if runErr != nil {
		return out, fmt.Errorf("cluster: join: %w", runErr)
	}
	return out, nil
}

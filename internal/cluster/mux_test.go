package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// muxPair builds and starts two Mux endpoints over a 2-clique on loopback
// listeners, returning them plus a per-endpoint inbound sink.
func muxPair(t *testing.T, ctx context.Context, qcap int) (ms [2]*Mux, got [2]chan Inbound2) {
	t.Helper()
	g := graph.Clique(2)
	var err error
	var ls [2]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	addrs := [2]string{ls[0].Addr().String(), ls[1].Addr().String()}
	for i := range ms {
		i := i
		got[i] = make(chan Inbound2, 64)
		ms[i], err = NewMux(MuxConfig{
			ID:           i,
			Graph:        g,
			Listener:     ls[i],
			Peers:        map[int]string{1 - i: addrs[1-i]},
			QueueCap:     qcap,
			OnFrameBatch: sinkTo(got[i]),
		})
		if err != nil {
			t.Fatal(err)
		}
		ms[i].Start(ctx)
		t.Cleanup(ms[i].Stop)
	}
	return ms, got
}

type Inbound2 struct {
	From  int
	Frame []byte
}

// sinkTo is an OnFrameBatch that forwards each frame of a burst to ch.
func sinkTo(ch chan<- Inbound2) func(int, [][]byte, []wire.FrameInfo) {
	return func(from int, frames [][]byte, _ []wire.FrameInfo) {
		for _, f := range frames {
			ch <- Inbound2{from, f}
		}
	}
}

// discardBatch is an OnFrameBatch for endpoints that never receive.
func discardBatch(int, [][]byte, []wire.FrameInfo) {}

func recvFrame(t *testing.T, ch chan Inbound2) Inbound2 {
	t.Helper()
	select {
	case in := <-ch:
		return in
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for mux frame")
		return Inbound2{}
	}
}

func TestMuxRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms, got := muxPair(t, ctx, 0)

	// Frames carry distinct instance ids over the same persistent pair of
	// connections — the multiplexing the service tier rests on.
	for inst := uint64(0); inst < 4; inst++ {
		frame, err := wire.EncodeInstanceMessage(inst, transport.Message{
			From: 0, To: 1, Payload: bw.ValPayload{Round: 1, Value: float64(inst)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ms[0].Send(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		in := recvFrame(t, got[1])
		if in.From != 0 {
			t.Fatalf("frame attributed to %d, want 0", in.From)
		}
		fi, err := wire.PeekFrame(in.Frame)
		if err != nil {
			t.Fatal(err)
		}
		seen[fi.Inst] = true
	}
	for inst := uint64(0); inst < 4; inst++ {
		if !seen[inst] {
			t.Fatalf("instance %d frame never arrived (got %v)", inst, seen)
		}
	}

	// And the reverse direction.
	frame, err := wire.EncodeInstanceMessage(9, transport.Message{
		From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms[1].Send(0, frame); err != nil {
		t.Fatal(err)
	}
	if in := recvFrame(t, got[0]); in.From != 1 {
		t.Fatalf("frame attributed to %d, want 1", in.From)
	}

	st := ms[0].QueueStats()
	if st.Enqueued != 4 {
		t.Fatalf("endpoint 0 enqueued %d frames, want 4", st.Enqueued)
	}
	if d := ms[0].QueueDepths(); len(d) != 1 {
		t.Fatalf("endpoint 0 has %d peer queues, want 1", len(d))
	}
}

func TestMuxRejectsNonEdgeSend(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms, _ := muxPair(t, ctx, 0)
	if err := ms[0].Send(0, []byte{1}); err == nil {
		t.Fatal("self-send over a non-edge was accepted")
	}
	if err := ms[0].Send(5, []byte{1}); err == nil {
		t.Fatal("send to an unknown vertex was accepted")
	}
}

// TestMuxSendRefusesOversize: a frame over wire.MaxFrame cannot cross the
// link (the writer's coalesce would skip it), so Send must
// refuse it out loud — an error for the caller and a count in
// QueueStats.Shed — rather than accept a protocol frame and lose it.
func TestMuxSendRefusesOversize(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m, err := NewMux(MuxConfig{
		ID: 0, Graph: graph.Clique(2), Listener: l,
		Peers:        map[int]string{1: "127.0.0.1:1"},
		OnFrameBatch: discardBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, wire.MaxFrame+1)
	if err := m.Send(1, huge); err == nil {
		t.Error("Send accepted a frame over MaxFrame")
	}
	if err := m.Send(1, huge[:wire.MaxFrame]); err != nil {
		t.Errorf("Send refused a frame of exactly MaxFrame: %v", err)
	}
	if st := m.QueueStats(); st.Shed != 1 || st.Enqueued != 1 {
		t.Fatalf("stats = %+v; want the oversize frame shed, the MaxFrame one enqueued", st)
	}
}

func TestMuxLateListener(t *testing.T) {
	// Endpoint 0 starts sending before endpoint 1 exists; the dial retry
	// loop delivers once 1 comes up (start-order independence).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := graph.Clique(2)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := l1.Addr().String()
	l1.Close() // free the port; endpoint 1 will rebind it later

	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m0, err := NewMux(MuxConfig{
		ID: 0, Graph: g, Listener: l0,
		Peers:        map[int]string{1: addr1},
		OnFrameBatch: discardBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	m0.Start(ctx)
	defer m0.Stop()

	frame, err := wire.EncodeInstanceMessage(3, transport.Message{
		From: 0, To: 1, Payload: bw.ValPayload{Round: 1, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.Send(1, frame); err != nil {
		t.Fatal(err)
	}

	time.Sleep(50 * time.Millisecond) // let a few dial attempts fail

	l1b, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr1, err)
	}
	got := make(chan Inbound2, 1)
	m1, err := NewMux(MuxConfig{
		ID: 1, Graph: g, Listener: l1b,
		Peers:        map[int]string{0: l0.Addr().String()},
		OnFrameBatch: sinkTo(got),
	})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(ctx)
	defer m1.Stop()

	in := recvFrame(t, got)
	fi, err := wire.PeekFrame(in.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if in.From != 0 || fi.Inst != 3 {
		t.Fatalf("late-listener frame from=%d inst=%d, want from=0 inst=3", in.From, fi.Inst)
	}
}

// TestMuxRejectsBadHello: the acceptor takes a pair only from a lower-id
// neighbour — the vertex that dials it. Every other hello is refused
// without dispatching the frame that follows it; the lower-id neighbour's
// frame is dispatched as its own.
func TestMuxRejectsBadHello(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Vertex 2 links with 0 (0 <-> 2) and 3 (2 -> 3); 1 is a cluster member
	// with no edge to or from 2.
	g := graph.New(4)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Inbound2, 4)
	m, err := NewMux(MuxConfig{
		ID: 2, Graph: g, Listener: l,
		Peers:        map[int]string{3: "127.0.0.1:1"},
		OnFrameBatch: sinkTo(got),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(ctx)
	defer m.Stop()

	hello := func(version byte, id int) []byte {
		h := append([]byte(nil), muxMagic[:]...)
		return append(h, version, byte(id>>8), byte(id))
	}
	frame, err := wire.EncodeInstanceMessage(0, transport.Message{
		From: 0, To: 2, Payload: bw.ValPayload{Round: 1, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := wire.AppendRawFrame(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	// dialWith opens a connection that sends the hello, then a well-formed
	// frame.
	dialWith := func(hello []byte) net.Conn {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Write(hello)
		c.Write(body)
		return c
	}
	cases := []struct {
		name  string
		hello []byte
	}{
		{"bad magic", []byte("NOPE\x04\x00\x01")},
		{"wrong wire version", hello(wire.Version+1, 0)},
		{"id outside the graph", hello(wire.Version, 7)},
		{"higher-id neighbour", hello(wire.Version, 3)},
		{"itself", hello(wire.Version, 2)},
		{"member with no edge either way", hello(wire.Version, 1)},
	}
	for _, tc := range cases {
		// A refused link must close without dispatching the frame.
		c := dialWith(tc.hello)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var ne net.Error
		if _, err := c.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: connection stayed open (read: %v)", tc.name, err)
		}
		c.Close()
	}
	select {
	case in := <-got:
		t.Fatalf("frame from %d dispatched from a refused connection", in.From)
	default:
	}

	c := dialWith(hello(wire.Version, 0))
	defer c.Close()
	if in := recvFrame(t, got); in.From != 0 {
		t.Fatalf("lower-id neighbour's frame attributed to %d, want 0", in.From)
	}
}

// liveConns counts the links holding a connection.
func (m *Mux) liveConns() int {
	live := 0
	for _, l := range m.links {
		l.mu.Lock()
		if l.conn != nil {
			live++
		}
		l.mu.Unlock()
	}
	return live
}

// current returns the link's connection, nil between connections.
func (l *link) current() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// countingDial wraps a medium's dial to count the connections it opens.
func countingDial(dial func(context.Context, string) (net.Conn, error), opened *atomic.Int64) func(context.Context, string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := dial(ctx, addr)
		if err == nil {
			opened.Add(1)
		}
		return c, err
	}
}

// TestMuxOnePerLinkedPair fences the fabric's shape: a fleet opens one
// connection per vertex pair with an edge either way, and each Mux holds
// one live connection per neighbour — on fig1a (16 directed edges, 8
// pairs), clique:8 (56, 28) and fig1b-analog (28 directed edges, 4 of them
// one-way: 16 pairs), over both media.
func TestMuxOnePerLinkedPair(t *testing.T) {
	for _, tc := range []struct {
		g     *graph.Graph
		pairs int
	}{
		{graph.Fig1a(), 8},
		{graph.Clique(8), 28},
		{graph.Fig1bAnalog(), 16},
	} {
		mem := newMemNetwork()
		for _, md := range []medium{
			{name: "loopback", listen: mem.listen, dial: mem.dial},
			{name: "tcp", listen: listenTCP, dial: dialTCP},
		} {
			t.Run(tc.g.Name()+"/"+md.name, func(t *testing.T) {
				var opened atomic.Int64
				md.dial = countingDial(md.dial, &opened)
				fl, err := newFleet(tc.g, md)
				if err != nil {
					t.Fatal(err)
				}
				defer fl.stop()
				for _, o := range fl {
					o.mux.Start(context.Background())
				}
				for i, o := range fl {
					want := len(o.mux.links)
					for deadline := time.Now().Add(5 * time.Second); o.mux.liveConns() != want; {
						if time.Now().After(deadline) {
							t.Fatalf("vertex %d holds %d live connections, want one per neighbour (%d)", i, o.mux.liveConns(), want)
						}
						time.Sleep(time.Millisecond)
					}
				}
				live := 0
				for _, o := range fl {
					live += o.mux.liveConns()
				}
				if live != 2*tc.pairs || opened.Load() != int64(tc.pairs) {
					t.Fatalf("%d connections opened, %d live ends; want %d and %d", opened.Load(), live, tc.pairs, 2*tc.pairs)
				}
			})
		}
	}
}

// TestMuxWrongVertexFramesSpoofed: a dialer that reached the wrong vertex
// attributes what it reads to the vertex it dialed, and the node's
// per-frame sender check drops all of it. On the star 1 <-> 0 <-> 2,
// vertex 0's dials for 1 and 2 land on each other's listeners: every frame
// of the run then arrives on a link that names another sender or
// destination than its header does.
func TestMuxWrongVertexFramesSpoofed(t *testing.T) {
	g := graph.New(3)
	for _, v := range []int{1, 2} {
		g.MustAddEdge(0, v)
		g.MustAddEdge(v, 0)
	}
	mem := newMemNetwork()
	swapped := map[string]string{"1": "2", "2": "1"} // memory addresses follow listen order
	dial := func(ctx context.Context, addr string) (net.Conn, error) { return mem.dial(ctx, swapped[addr]) }
	n := g.N()
	nodes := make([]*node.Node, n)
	arrived := make([]atomic.Int64, n)
	var muxes []*Mux
	addrs := make(map[int]string, n)
	var ls []net.Listener
	for i := 0; i < n; i++ {
		l, _ := mem.listen()
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	for i := 0; i < n; i++ {
		m, err := NewMux(MuxConfig{ID: i, Graph: g, Listener: ls[i], Peers: addrs, Dial: dial,
			OnFrameBatch: func(from int, frames [][]byte, _ []wire.FrameInfo) {
				if !nodes[i].Post(from, frames) {
					releaseFrames(frames)
				}
				arrived[i].Add(int64(len(frames)))
			}})
		if err != nil {
			t.Fatal(err)
		}
		muxes = append(muxes, m)
		h, err := iterative.NewMachine(g, 0, i, 1<<20, float64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[i], err = node.New(node.Config{ID: i, Graph: g, Handler: h, Out: m}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, m := range muxes {
		m.Start(ctx)
		defer m.Stop()
	}
	for _, nd := range nodes {
		nd.Start(nil)
	}
	for i := range arrived {
		for deadline := time.Now().Add(5 * time.Second); arrived[i].Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("no frame reached vertex %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	for _, nd := range nodes {
		nd.Close()
	}
	for _, m := range muxes {
		m.Stop()
	}
	for i, nd := range nodes {
		if st := nd.Stats(); st.Spoofed == 0 || st.Delivered != 0 {
			t.Errorf("vertex %d: %d spoofed, %d delivered; want every arrival dropped as spoofed", i, st.Spoofed, st.Delivered)
		}
	}
}

// TestMuxCutLinkRepeatedly cuts one pair's connection 100 times, from
// either end, while frames flow both ways over it. Each cut breaks both
// directed edges: the dialer redials, the acceptor replaces the dead
// connection, and each writer replays its own tail — so every frame
// arrives exactly once and in order, and each Mux still holds one
// connection per neighbour, not one per connection it ever had. The
// memory network makes exactly-once checkable: a pipe write completes only
// as the peer reads it, so no accepted byte dies in a kernel buffer.
func TestMuxCutLinkRepeatedly(t *testing.T) {
	const cuts = 100
	g := graph.Clique(3)
	mem := newMemNetwork()
	addrs := make(map[int]string)
	var ls []net.Listener
	for i := 0; i < g.N(); i++ {
		l, _ := mem.listen()
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	// next[i] is the sequence number vertex i expects next from its pair
	// partner 1-i; only the reader of that link touches it.
	var next [2]atomic.Uint64
	var muxes []*Mux
	for i := 0; i < g.N(); i++ {
		m, err := NewMux(MuxConfig{ID: i, Graph: g, Listener: ls[i], Peers: addrs, Dial: mem.dial,
			OnFrameBatch: func(from int, frames [][]byte, _ []wire.FrameInfo) {
				for _, f := range frames {
					if i < 2 && from == 1-i {
						if seq, want := binary.BigEndian.Uint64(f), next[i].Load(); seq != want {
							t.Errorf("vertex %d got frame %d from %d, want %d", i, seq, from, want)
						}
						next[i].Add(1)
					}
					wire.PutBuf(f)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		muxes = append(muxes, m)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, m := range muxes {
		m.Start(ctx)
		defer m.Stop()
	}

	var cutting atomic.Bool
	cutting.Store(true)
	var sent [2]uint64
	var senders sync.WaitGroup
	for i := range sent {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for seq := uint64(0); cutting.Load(); seq++ {
				if err := muxes[i].Send(1-i, binary.BigEndian.AppendUint64(wire.GetBuf(), seq)); err != nil {
					t.Error(err)
					return
				}
				sent[i] = seq + 1
			}
		}()
	}
	// waitFor polls cond until it holds or the deadline passes.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				cutting.Store(false)
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for k := 0; k < cuts; k++ {
		// Cut from the dialer's end (0) and the acceptor's (1) in turn,
		// each time once traffic has crossed the current connection.
		l := muxes[k%2].links[1-k%2]
		var c net.Conn
		waitFor("the pair's connection", func() bool { c = l.current(); return c != nil })
		before := [2]uint64{next[0].Load(), next[1].Load()}
		waitFor("traffic over the connection", func() bool { return next[0].Load() > before[0] && next[1].Load() > before[1] })
		c.Close()
		waitFor("a new connection", func() bool { cur := l.current(); return cur != nil && cur != c })
	}
	cutting.Store(false)
	senders.Wait()
	for i := range sent {
		waitFor("every frame", func() bool { return next[1-i].Load() >= sent[i] })
		if got := next[1-i].Load(); got != sent[i] {
			t.Errorf("vertex %d received %d frames from %d, which sent %d", 1-i, got, i, sent[i])
		}
	}
	for i, m := range muxes {
		m.mu.Lock()
		hellos := len(m.hellos)
		m.mu.Unlock()
		if live := m.liveConns(); live != len(m.links) || hellos != 0 {
			t.Errorf("vertex %d holds %d live connections and %d in their hello after %d cuts; want %d and 0", i, live, hellos, cuts, len(m.links))
		}
	}
}

package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bw"
	"repro/internal/graph"
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

func TestMuxRejectsBadHello(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 0 <-> 1 plus 0 -> 2: vertex 2 is a cluster member with no edge to 0.
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	g.MustAddEdge(0, 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	frames := 0
	m, err := NewMux(MuxConfig{
		ID: 0, Graph: g, Listener: l,
		Peers: map[int]string{1: "127.0.0.1:1", 2: "127.0.0.1:1"},
		OnFrameBatch: func(_ int, batch [][]byte, _ []wire.FrameInfo) {
			mu.Lock()
			frames += len(batch)
			mu.Unlock()
		},
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
		From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := wire.AppendRawFrame(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		hello []byte
	}{
		{"bad magic", []byte("NOPE\x04\x00\x01")},
		{"wrong wire version", hello(wire.Version+1, 1)},
		{"id outside the graph", hello(wire.Version, 7)},
		{"member with no edge to us", hello(wire.Version, 2)},
	}
	for _, tc := range cases {
		// Each connection follows its hello with a well-formed frame: a
		// refused link must close without dispatching it.
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Write(tc.hello)
		c.Write(body)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var ne net.Error
		if _, err := c.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: connection stayed open (read: %v)", tc.name, err)
		}
		c.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	if frames != 0 {
		t.Fatalf("%d frames dispatched from refused connections", frames)
	}
}

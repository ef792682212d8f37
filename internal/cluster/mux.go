package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/wire"
)

// The Mux is the live tier's one transport: one connection per linked
// vertex pair — a pair is linked when the graph has an edge either way —
// carrying both directed edges of the pair, for every consensus instance
// the two vertices share (the instance id rides in the wire frame — codec
// v4; a one-shot run is the special case where every frame says instance
// 0, see tcp.go). The lower id dials the connection and the higher id
// accepts it, so data going one way carries the other direction's ACKs.
// The connection is a TCP socket, or a memNetwork pipe under the loopback
// runtime (MuxConfig.Dial); either gives the per-edge FIFO reliability the
// model assumes. The accepting side learns the sender's identity from the
// dialer's hello; the dialing side attributes what it reads to the vertex
// it dialed. Each node re-checks that identity against every frame's
// header (node.Stats.Spoofed), so a dialer that reached the wrong vertex
// has that vertex's frames dropped, not misattributed. A cut connection
// breaks both directed edges of its pair: the dialer redials, the acceptor
// takes the new connection in place of the old, and each direction's
// writer replays its own unwritten tail on it.
//
// Per-peer outbound queues are bounded (see queue): a vertex that outruns
// a slow peer blocks on Send — backpressure that propagates to whoever
// runs the machine, accounted and surfaced through QueueStats. Inbound,
// one reader per in-neighbour hands read bursts to the dispatcher; a
// dispatcher that blocks (a node mailbox at capacity, or the reader itself
// running a node whose Send waits on a full peer queue) stalls exactly
// that one peer's inbound direction, which is TCP's own flow control doing
// the rest.

// muxMagic opens every connection; the bytes after it are the wire codec
// version and the sender's vertex id (two big-endian bytes, covering the
// full graph.MaxNodes id range).
var muxMagic = [4]byte{'A', 'B', 'M', 'X'}

const muxHelloLen = 7

func writeMuxHello(c net.Conn, id int) error {
	if id < 0 || id > 0xFFFF {
		return fmt.Errorf("cluster: vertex id %d does not fit the mux hello", id)
	}
	var buf [muxHelloLen]byte
	copy(buf[:], muxMagic[:])
	buf[4] = wire.Version
	binary.BigEndian.PutUint16(buf[5:], uint16(id))
	_, err := c.Write(buf[:])
	return err
}

func readMuxHello(c net.Conn) (int, error) {
	var buf [muxHelloLen]byte
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		return 0, err
	}
	if [4]byte(buf[:4]) != muxMagic {
		return 0, fmt.Errorf("cluster: bad mux hello magic %q", buf[:4])
	}
	if buf[4] != wire.Version {
		return 0, fmt.Errorf("cluster: peer speaks wire version %d, this build speaks %d", buf[4], wire.Version)
	}
	return int(binary.BigEndian.Uint16(buf[5:])), nil
}

// MuxConfig parameterizes one vertex's multiplexed transport.
type MuxConfig struct {
	// ID is this daemon's vertex; Graph the shared topology.
	ID    int
	Graph *graph.Graph
	// Listener accepts peer connections (bind it before constructing, so
	// addresses are known; see Listen).
	Listener net.Listener
	// Peers maps every higher-id neighbour of ID (an in- or out-neighbour:
	// this vertex dials each such pair) to its dial address. Other entries
	// are ignored.
	Peers map[int]string
	// Dial opens a connection to a peer address (nil = TCP). An error is
	// retried with backoff until the Mux stops.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// QueueCap bounds each per-peer outbound queue (0 = DefaultQueueCap).
	QueueCap int
	// OnFrameBatch consumes every inbound read burst with the true sender
	// (the peer the link belongs to — the reliable-link model's sender
	// authentication, which each node re-checks against the frame
	// contents). The reader decodes bursts with wire.FrameReader.NextBatch
	// and hands the whole burst over in one call, each frame's routing
	// header already peeked into infos[i] (infos[i].Bad marks a frame whose
	// header did not parse — the consumer accounts for it and releases it).
	// frames[i] is in per-link arrival order. It is invoked from
	// per-link reader goroutines and may block; a blocked dispatcher
	// stalls only that peer's inbound direction. Ownership of every frame
	// buffer transfers with the call — the bytes are pooled and the dispatch
	// chain's final consumer releases them with wire.PutBuf — but the frames
	// and infos slices themselves remain the reader's scratch and are reused
	// for the next burst: the consumer must not retain either slice past
	// return.
	OnFrameBatch func(from int, frames [][]byte, infos []wire.FrameInfo)
}

// Mux is one vertex's persistent multiplexed connection fabric. Create
// with NewMux, launch with Start, transmit with Send.
type Mux struct {
	cfg    MuxConfig
	links  map[int]*link // one per in- or out-neighbour
	wg     sync.WaitGroup
	cancel context.CancelFunc

	mu     sync.Mutex
	hellos map[net.Conn]struct{} // accepted connections still in their hello
	closed bool

	stopOnce sync.Once
}

// link is this vertex's side of one linked pair: the pair's current
// connection and the directions this vertex serves on it.
type link struct {
	peer int
	// addr is the peer's dial address; set only when this vertex dials the
	// pair (its id is the lower).
	addr string
	// out queues frames toward the peer; nil when there is no edge to it.
	out *queue[[]byte]
	// reads is set when the peer has an edge to this vertex.
	reads bool

	mu      sync.Mutex
	conn    net.Conn      // the live connection; nil between connections
	changed chan struct{} // closed and replaced whenever conn or closed changes
	closed  bool
}

// signal wakes every await; the caller holds l.mu.
func (l *link) signal() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// install makes c the link's connection and closes the one it replaces, so
// the pair holds one live connection. It reports false, closing c, once
// the link is closed.
func (l *link) install(c net.Conn) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.Close()
		return false
	}
	old := l.conn
	l.conn = c
	l.signal()
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return true
}

// fail closes c, a connection its reader or writer saw fail, and retires
// it if it is still the link's connection. It reports false once the link
// is closed.
func (l *link) fail(c net.Conn) bool {
	c.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == c {
		l.conn = nil
		l.signal()
	}
	return !l.closed
}

// await blocks until ok holds for the link's connection and returns it. It
// fails once the link is closed or ctx ends.
func (l *link) await(ctx context.Context, ok func(net.Conn) bool) (net.Conn, error) {
	for {
		l.mu.Lock()
		c, closed, changed := l.conn, l.closed, l.changed
		l.mu.Unlock()
		if closed {
			return nil, net.ErrClosed
		}
		if ok(c) {
			return c, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-changed:
		}
	}
}

// next waits for a live connection other than prev, the one the caller
// last used (nil for none).
func (l *link) next(ctx context.Context, prev net.Conn) (net.Conn, error) {
	return l.await(ctx, func(c net.Conn) bool { return c != nil && c != prev })
}

// close shuts the link for good: its queue refuses, its connection closes.
func (l *link) close() {
	l.mu.Lock()
	c := l.conn
	l.conn = nil
	l.closed = true
	l.signal()
	l.mu.Unlock()
	if l.out != nil {
		l.out.close()
	}
	if c != nil {
		c.Close()
	}
}

// NewMux validates the config and builds the fabric (no goroutines yet).
func NewMux(cfg MuxConfig) (*Mux, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("cluster: mux needs a graph")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Graph.N() {
		return nil, fmt.Errorf("cluster: mux id %d outside graph order %d", cfg.ID, cfg.Graph.N())
	}
	if cfg.Listener == nil {
		return nil, fmt.Errorf("cluster: mux needs a listener")
	}
	if cfg.OnFrameBatch == nil {
		return nil, fmt.Errorf("cluster: mux needs a frame dispatcher")
	}
	if cfg.Dial == nil {
		var d net.Dialer
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) { return d.DialContext(ctx, "tcp", addr) }
	}
	m := &Mux{cfg: cfg, links: make(map[int]*link), hellos: make(map[net.Conn]struct{})}
	linkTo := func(v int) *link {
		l := m.links[v]
		if l == nil {
			l = &link{peer: v, changed: make(chan struct{})}
			m.links[v] = l
		}
		return l
	}
	for _, v := range cfg.Graph.Out(cfg.ID) {
		linkTo(v).out = newQueue[[]byte](cfg.QueueCap)
	}
	for _, v := range cfg.Graph.In(cfg.ID) {
		linkTo(v).reads = true
	}
	for v, l := range m.links {
		if v < cfg.ID {
			continue // the peer dials this pair
		}
		addr, ok := cfg.Peers[v]
		if !ok {
			return nil, fmt.Errorf("cluster: vertex %d dials its neighbour %d but has no peer address for it", cfg.ID, v)
		}
		l.addr = addr
	}
	return m, nil
}

// Send enqueues a frame toward an out-neighbor, blocking while that peer's
// bounded queue is full (the backpressure path). Frames enqueued after
// shutdown are shed silently, like messages in flight when a run ends.
// A frame the link cannot carry is refused: a body over wire.MaxFrame would
// be skipped by the writer's coalesce and lost without a trace on a link
// the model calls reliable, so it is released, counted as shed and reported
// here instead — to a node that is a run error, like a payload the codec
// cannot encode (the service tier retires the instance with it as cause).
// Ownership of frame transfers to the fabric: the per-edge writer releases
// it to the pool after transmission (or here, when a shed drops it), so the
// caller must not retain it.
func (m *Mux) Send(to int, frame []byte) error {
	l := m.links[to]
	if l == nil || l.out == nil {
		return fmt.Errorf("cluster: mux send over non-edge %d->%d", m.cfg.ID, to)
	}
	q := l.out
	if len(frame) > wire.MaxFrame {
		q.countShed()
		wire.PutBuf(frame)
		return fmt.Errorf("cluster: mux send %d->%d: frame of %d bytes exceeds MaxFrame %d", m.cfg.ID, to, len(frame), wire.MaxFrame)
	}
	if !q.push(frame) {
		wire.PutBuf(frame)
	}
	return nil
}

// QueueStats aggregates the outbound queues' accounting across peers.
func (m *Mux) QueueStats() QueueStats {
	var s QueueStats
	for _, l := range m.links {
		if l.out != nil {
			s.add(l.out.snapshot())
		}
	}
	return s
}

// QueueDepths reports each out-neighbor's current queue depth (a gauge for
// the metrics plane).
func (m *Mux) QueueDepths() map[int]int64 {
	out := make(map[int]int64, len(m.links))
	for to, l := range m.links {
		if l.out != nil {
			out[to] = l.out.snapshot().Depth
		}
	}
	return out
}

// Start launches the accept loop, one writer per out-edge, one dialer per
// pair this vertex dials (which also reads the pair when the peer has an
// edge here), one reader per accepted pair the peer sends on, and the
// teardown watcher. The fabric runs until ctx ends or Stop is called;
// either path cancels the internal context, so every goroutine unwinds.
func (m *Mux) Start(ctx context.Context) {
	ctx, m.cancel = context.WithCancel(ctx)
	m.goRun(func() { m.acceptLoop(ctx) })
	for _, l := range m.links {
		if l.out != nil {
			m.goRun(func() { m.writeLoop(ctx, l) })
		}
		switch {
		case l.peer > m.cfg.ID:
			m.goRun(func() { m.dialLoop(ctx, l) })
		case l.reads:
			m.goRun(func() { m.readLoop(ctx, l) })
		}
	}
	m.goRun(func() {
		<-ctx.Done()
		m.teardown()
	})
}

// goRun starts f on a goroutine Stop joins.
func (m *Mux) goRun(f func()) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		f()
	}()
}

// holdHello registers an accepted connection for teardown while its hello
// is read; it returns false (and closes the conn) when the fabric is
// already stopped. dropHello forgets it once the hello is in: from there
// the link owns it.
func (m *Mux) holdHello(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		c.Close()
		return false
	}
	m.hellos[c] = struct{}{}
	return true
}

func (m *Mux) dropHello(c net.Conn) {
	m.mu.Lock()
	delete(m.hellos, c)
	m.mu.Unlock()
}

func (m *Mux) teardown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	hellos := m.hellos
	m.hellos = nil
	m.closed = true
	m.mu.Unlock()
	if m.cancel != nil {
		m.cancel()
	}
	m.cfg.Listener.Close()
	for _, l := range m.links {
		l.close()
	}
	for c := range hellos {
		c.Close()
	}
}

// Stop tears the fabric down and joins every goroutine.
func (m *Mux) Stop() { m.stopOnce.Do(func() { m.teardown(); m.wg.Wait() }) }

// acceptLoop serves the pairs lower-id neighbours dial: handshake, refuse
// any dialer that is not a lower-id neighbour, then hand the connection to
// the pair's link, replacing the one it held.
func (m *Mux) acceptLoop(ctx context.Context) {
	for {
		c, err := m.cfg.Listener.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		if !m.holdHello(c) {
			return
		}
		m.goRun(func() {
			peer, err := readMuxHello(c)
			m.dropHello(c)
			l := m.links[peer]
			if err != nil || l == nil || peer >= m.cfg.ID {
				c.Close()
				return
			}
			l.install(c)
		})
	}
}

// readLoop reads an accepted pair the peer sends on: each connection the
// peer dials, in turn, so a redial never reorders the peer's frames.
func (m *Mux) readLoop(ctx context.Context, l *link) {
	var c net.Conn
	for {
		var err error
		if c, err = l.next(ctx, c); err != nil {
			return
		}
		m.readConn(ctx, l.peer, c)
		if !l.fail(c) {
			return
		}
	}
}

// readConn hands every burst read from c to the dispatcher as from's,
// until c fails or the fabric stops, and reports whether any burst came.
func (m *Mux) readConn(ctx context.Context, from int, c net.Conn) (carried bool) {
	// One NextBatch per socket burst, one dispatcher call per burst. The
	// scratch slices live for the connection and are reused every
	// iteration — the dispatcher contract (see MuxConfig.OnFrameBatch)
	// forbids retaining them, so the steady state allocates nothing.
	fr := wire.NewFrameReader(c)
	frames := make([][]byte, 0, maxBatchFrames)
	infos := make([]wire.FrameInfo, 0, maxBatchFrames)
	for {
		var err error
		frames, infos, err = fr.NextBatch(frames[:0], infos[:0], maxBatchFrames)
		if err != nil {
			return carried
		}
		if ctx.Err() != nil {
			releaseFrames(frames)
			return carried
		}
		carried = true
		m.cfg.OnFrameBatch(from, frames, infos) // frame ownership transfers
	}
}

// dialRetryFloor/Ceil bound the reconnect backoff (dialMux's, dialLoop's
// after a connection that carried nothing, and the pause drainLoop takes
// between a failed write and its next connection).
const (
	dialRetryFloor = 5 * time.Millisecond
	dialRetryCeil  = 250 * time.Millisecond
)

// dialMux connects to addr with retry/backoff until ctx ends, completing
// the handshake. The retry is what makes start order irrelevant: whichever
// process starts first keeps knocking until the peer's listener is up.
func (m *Mux) dialMux(ctx context.Context, addr string) (net.Conn, error) {
	backoff := dialRetryFloor
	for {
		c, err := m.cfg.Dial(ctx, addr)
		if err == nil {
			if err := writeMuxHello(c, m.cfg.ID); err == nil {
				return c, nil
			}
			c.Close()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialRetryCeil {
			backoff = dialRetryCeil
		}
	}
}

// dialLoop keeps a pair this vertex dials connected, from Start on: the
// peer's writer depends on this connection, so it never waits for traffic.
// When the peer sends on the pair, the loop reads each connection until it
// fails and redials; a connection that fails before carrying a frame (a
// peer that refuses the link) backs the redial off. Otherwise only this
// vertex's writer uses the connection, and the loop redials once the
// writer reports it failed.
func (m *Mux) dialLoop(ctx context.Context, l *link) {
	backoff := dialRetryFloor
	for {
		c, err := m.dialMux(ctx, l.addr)
		if err != nil || !l.install(c) {
			return
		}
		if !l.reads {
			if _, err := l.await(ctx, func(cur net.Conn) bool { return cur != c }); err != nil {
				return
			}
			continue
		}
		carried := m.readConn(ctx, l.peer, c)
		if !l.fail(c) {
			return
		}
		if carried {
			backoff = dialRetryFloor
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialRetryCeil {
			backoff = dialRetryCeil
		}
	}
}

// writeLoop drains one peer's bounded queue onto the pair's connection
// through the batched drain (see drainLoop): bursts coalesce into one Write
// syscall; a write failure retires the connection and the unwritten tail
// waits for the pair's next one.
func (m *Mux) writeLoop(ctx context.Context, l *link) {
	var last net.Conn
	drainLoop(ctx, l.out, func(ctx context.Context) (net.Conn, error) {
		c, err := l.next(ctx, last)
		last = c
		return c, err
	}, l.fail)
}

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

// The Mux is the live tier's one transport: one connection per directed
// edge (u, v), dialed by the sender u, carrying frames for every consensus
// instance the two vertices share (the instance id rides in the wire frame
// — codec v4; a one-shot run is the special case where every frame says
// instance 0, see tcp.go). The connection is a TCP socket, or a memNetwork
// pipe under the loopback runtime (MuxConfig.Dial); either gives the
// per-edge FIFO reliability the model assumes, and the hello gives the
// receiver the sender's identity. Per-peer outbound queues are bounded (see queue): a
// vertex that outruns a slow peer blocks on Send — backpressure that
// propagates to whoever runs the machine, accounted and surfaced through
// QueueStats. Inbound, one reader per in-edge hands read bursts to the
// dispatcher; a dispatcher that blocks (a node mailbox at capacity, or the
// reader itself running a node whose Send waits on a full peer queue) stalls exactly that one peer connection, which is TCP's own flow
// control doing the rest.

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
	// Peers maps every out-neighbor of ID to its dial address.
	Peers map[int]string
	// Dial opens a connection to a peer address (nil = TCP). An error is
	// retried with backoff until the Mux stops.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// QueueCap bounds each per-peer outbound queue (0 = DefaultQueueCap).
	QueueCap int
	// OnFrameBatch consumes every inbound read burst with the true sender
	// (from the handshake — the reliable-link model's sender
	// authentication, which each node re-checks against the frame
	// contents). The reader decodes bursts with wire.FrameReader.NextBatch
	// and hands the whole burst over in one call, each frame's routing
	// header already peeked into infos[i] (infos[i].Bad marks a frame whose
	// header did not parse — the consumer accounts for it and releases it).
	// frames[i] is in per-link arrival order. It is invoked from
	// per-connection reader goroutines and may block; a blocked dispatcher
	// stalls only that peer's connection. Ownership of every frame buffer
	// transfers with the call — the bytes are pooled and the dispatch
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
	queues map[int]*queue[[]byte]
	wg     sync.WaitGroup
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  []net.Conn
	closed bool

	stopOnce sync.Once
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
	m := &Mux{cfg: cfg, queues: make(map[int]*queue[[]byte])}
	for _, v := range cfg.Graph.Out(cfg.ID) {
		if _, ok := cfg.Peers[v]; !ok {
			return nil, fmt.Errorf("cluster: vertex %d has edge to %d but no peer address for it", cfg.ID, v)
		}
		m.queues[v] = newQueue[[]byte](cfg.QueueCap)
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
	q, ok := m.queues[to]
	if !ok {
		return fmt.Errorf("cluster: mux send over non-edge %d->%d", m.cfg.ID, to)
	}
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
	for _, q := range m.queues {
		s.add(q.snapshot())
	}
	return s
}

// QueueDepths reports each out-neighbor's current queue depth (a gauge for
// the metrics plane).
func (m *Mux) QueueDepths() map[int]int64 {
	out := make(map[int]int64, len(m.queues))
	for to, q := range m.queues {
		out[to] = q.snapshot().Depth
	}
	return out
}

// Start launches the accept loop, one dialer/writer per out-edge, and the
// teardown watcher. The fabric runs until ctx ends or Stop is called;
// either path cancels the internal context, so every goroutine unwinds.
func (m *Mux) Start(ctx context.Context) {
	ctx, m.cancel = context.WithCancel(ctx)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.acceptLoop(ctx)
	}()
	for to, q := range m.queues {
		m.wg.Add(1)
		go func(to int, q *queue[[]byte]) {
			defer m.wg.Done()
			m.writeLoop(ctx, to, q)
		}(to, q)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		<-ctx.Done()
		m.teardown()
	}()
}

// track registers a connection for teardown; it returns false (and closes
// the conn) when the fabric is already stopped.
func (m *Mux) track(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		c.Close()
		return false
	}
	m.conns = append(m.conns, c)
	return true
}

func (m *Mux) teardown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	conns := m.conns
	m.conns = nil
	m.closed = true
	m.mu.Unlock()
	if m.cancel != nil {
		m.cancel()
	}
	m.cfg.Listener.Close()
	for _, q := range m.queues {
		q.close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Stop tears the fabric down and joins every goroutine.
func (m *Mux) Stop() { m.stopOnce.Do(func() { m.teardown(); m.wg.Wait() }) }

// acceptLoop serves inbound edges: handshake, validate the claimed peer
// against the topology, then hand every frame to the dispatcher.
func (m *Mux) acceptLoop(ctx context.Context) {
	for {
		c, err := m.cfg.Listener.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		if !m.track(c) {
			return
		}
		m.wg.Add(1)
		go func(c net.Conn) {
			defer m.wg.Done()
			peer, err := readMuxHello(c)
			if err != nil || peer < 0 || peer >= m.cfg.Graph.N() || !m.cfg.Graph.HasEdge(peer, m.cfg.ID) {
				// Not a cluster member with an edge to us: refuse the link.
				c.Close()
				return
			}
			// One NextBatch per socket burst, one dispatcher call per burst.
			// The scratch slices live for the connection and are reused every
			// iteration — the dispatcher contract (see MuxConfig.OnFrameBatch)
			// forbids retaining them, so the steady state allocates nothing.
			fr := wire.NewFrameReader(c)
			frames := make([][]byte, 0, maxBatchFrames)
			infos := make([]wire.FrameInfo, 0, maxBatchFrames)
			for {
				var err error
				frames, infos, err = fr.NextBatch(frames[:0], infos[:0], maxBatchFrames)
				if err != nil {
					c.Close()
					return
				}
				if ctx.Err() != nil {
					releaseFrames(frames)
					c.Close()
					return
				}
				m.cfg.OnFrameBatch(peer, frames, infos) // frame ownership transfers
			}
		}(c)
	}
}

// dialRetryFloor/Ceil bound the reconnect backoff (dialMux's, and the
// pause drainLoop takes between a failed write and its redial).
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

// writeLoop drains one peer's bounded queue onto its connection through
// the batched drain (see drainLoop): bursts coalesce into one Write
// syscall, write failures redial with the unwritten tail retained.
func (m *Mux) writeLoop(ctx context.Context, to int, q *queue[[]byte]) {
	drainLoop(ctx, q, func(ctx context.Context) (net.Conn, error) {
		return m.dialMux(ctx, m.cfg.Peers[to])
	}, m.track)
}

package cluster

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// memNetwork is the loopback runtime's medium: named in-process listeners
// whose Accept hands over one end of a net.Pipe while dial returns the
// other, so a Mux fleet runs over it exactly as it runs over TCP — hello,
// coalesced writes, FrameReader bursts and all. A pipe has no buffer (a
// write completes as the peer reads it); per-edge order is FIFO and the
// interleaving across edges is whatever the Go scheduler produces — a
// legal asynchronous schedule, different from the simulator's seeded one.
type memNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

func newMemNetwork() *memNetwork {
	return &memNetwork{listeners: make(map[string]*memListener)}
}

// listen binds a fresh listener under the next unused address.
func (n *memNetwork) listen() (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := &memListener{
		addr:  memAddr(strconv.Itoa(len(n.listeners))),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	n.listeners[string(l.addr)] = l
	return l, nil
}

// dial connects to the listener at addr, blocking until it accepts. It
// fails on an unknown address, a closed listener or an ended ctx.
func (n *memNetwork) dial(ctx context.Context, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("cluster: memory dial %q: no such listener", addr)
	}
	client, server := net.Pipe()
	var err error
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		err = fmt.Errorf("cluster: memory dial %q: %w", addr, net.ErrClosed)
	case <-ctx.Done():
		err = ctx.Err()
	}
	client.Close()
	server.Close()
	return nil, err
}

type memListener struct {
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

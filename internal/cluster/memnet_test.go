package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestMemNet pins the memory network's edges: every way a dial or an
// accept can end without a connection ends, and neither end of a pipe
// outlives the other's Close.
func TestMemNet(t *testing.T) {
	t.Run("unknown address", func(t *testing.T) {
		mem := newMemNetwork()
		if _, err := mem.dial(context.Background(), "nowhere"); err == nil {
			t.Fatal("dial to an unknown address succeeded")
		}
	})
	t.Run("closed listener", func(t *testing.T) {
		mem := newMemNetwork()
		l, _ := mem.listen()
		l.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := mem.dial(ctx, l.Addr().String()); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("dial to a closed listener: %v, want net.ErrClosed", err)
		}
	})
	t.Run("cancel while nobody accepts", func(t *testing.T) {
		mem := newMemNetwork()
		l, _ := mem.listen()
		defer l.Close()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		if _, err := mem.dial(ctx, l.Addr().String()); !errors.Is(err, context.Canceled) {
			t.Fatalf("dial with nobody accepting: %v, want context.Canceled", err)
		}
	})
	t.Run("accept after close", func(t *testing.T) {
		mem := newMemNetwork()
		l, _ := mem.listen()
		l.Close()
		if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept after Close: %v, want net.ErrClosed", err)
		}
	})
	t.Run("close wakes the peer's read", func(t *testing.T) {
		mem := newMemNetwork()
		l, _ := mem.listen()
		defer l.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := l.Accept() // a successful dial means this Accept returned its conn
			accepted <- c
		}()
		client, err := mem.dial(context.Background(), l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		server := <-accepted
		defer server.Close()
		read := make(chan error, 1)
		go func() {
			_, err := server.Read(make([]byte, 1))
			read <- err
		}()
		client.Close()
		select {
		case err := <-read:
			if err == nil {
				t.Fatal("Read on the peer of a closed conn returned data")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("closing one end did not wake a Read on the other")
		}
	})
}

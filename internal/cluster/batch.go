package cluster

import (
	"context"
	"net"
	"time"

	"repro/internal/wire"
)

// The Mux's batched write path: drain the per-edge bounded queue in
// batches (one lock round-trip per burst, see queue.popBatch), coalesce
// each batch into a single reused buffer with the length prefixes appended
// in place (wire.AppendRawFrame), and hand the whole batch to the kernel as
// one Write syscall. The writer does not dial: it writes to the linked
// pair's current connection, which it shares with the reverse direction.
// A write failure retires that connection and replays the unwritten tail
// on the pair's next one — exactly once from the peer's point of view,
// because a frame cut mid-write died with the broken connection.

const (
	// maxBatchFrames caps one coalesced write. The cap bounds both the
	// latency a frame can sit behind earlier frames of its own batch and
	// the replay cost after a partial write.
	maxBatchFrames = 64
	// maxRetainedCoalesce bounds the coalesce buffer kept across batches;
	// a rare giant batch does not park its buffer on the writer forever.
	maxRetainedCoalesce = 1 << 20
)

// coalesceFrames appends each frame, length-prefixed, to buf and records
// in ends the buffer offset at which each frame is complete (parallel to
// frames). An oversized frame appends nothing — its end equals its
// predecessor's, so the replay logic treats it as written and it is
// dropped. That is a defensive skip only: Mux.Send refuses (and counts)
// such a frame before it can be queued.
func coalesceFrames(buf []byte, ends []int, frames [][]byte) ([]byte, []int) {
	for _, f := range frames {
		if next, err := wire.AppendRawFrame(buf, f); err == nil {
			buf = next
		}
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// tailStart returns the index of the first frame not fully contained in a
// written prefix of n bytes — the start of the batch tail a reconnecting
// writer must replay. Frames with ends[i] <= n reached the kernel buffer
// in full and count as transmitted (the same at-most-once caveat a
// single-frame Write has: bytes accepted by the kernel may still be lost
// with the connection).
func tailStart(ends []int, n int) int {
	for i, e := range ends {
		if e > n {
			return i
		}
	}
	return len(ends)
}

// releaseFrames returns a batch's frame buffers to the pool (the writer is
// each frame's final owner).
func releaseFrames(frames [][]byte) {
	for _, f := range frames {
		wire.PutBuf(f)
	}
}

// drainLoop is the per-edge writer: batches from q, coalesced writes to
// the connection next hands it, exit when the queue closes or ctx ends. On
// a write failure the connection goes to failed, which returns false once
// the owner is stopped, and the unwritten tail is replayed on the next
// connection. next waits for a connection newer than the last one it
// returned (Mux.writeLoop waits for the pair's next one) and returns an
// error only for shutdown.
func drainLoop(ctx context.Context, q *queue[[]byte], next func(context.Context) (net.Conn, error), failed func(net.Conn) bool) {
	var (
		c       net.Conn
		backoff = dialRetryFloor
		batch   = make([][]byte, 0, maxBatchFrames)
		buf     = make([]byte, 0, minPooledBatchBuf)
		ends    = make([]int, 0, maxBatchFrames)
	)
	for {
		var ok bool
		if batch, ok = q.popBatch(batch); !ok {
			return
		}
		tail := batch
		buf, ends = coalesceFrames(buf[:0], ends[:0], tail)
		for len(tail) > 0 {
			if c == nil {
				var err error
				if c, err = next(ctx); err != nil {
					releaseFrames(tail)
					return // context ended while waiting: shutdown
				}
			}
			n, err := c.Write(buf)
			if err == nil {
				backoff = dialRetryFloor
				releaseFrames(tail)
				break
			}
			// The written prefix is transmitted; the frame the cut landed in
			// died with the connection, so the replay starts there and the
			// peer sees every frame exactly once.
			k := tailStart(ends, n)
			releaseFrames(tail[:k])
			tail = tail[k:]
			if !failed(c) {
				releaseFrames(tail)
				return
			}
			c = nil
			buf, ends = coalesceFrames(buf[:0], ends[:0], tail)
			// Back off before the next connection: a peer that accepts the
			// TCP handshake but rejects the link would otherwise drive a
			// dial-ok/write-fail cycle at full speed, since the dialer
			// redials as soon as its writer reports the failure.
			select {
			case <-ctx.Done():
				releaseFrames(tail)
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > dialRetryCeil {
				backoff = dialRetryCeil
			}
		}
		if cap(buf) > maxRetainedCoalesce {
			buf = make([]byte, 0, minPooledBatchBuf)
		}
		// Frames were released above; drop the batch's references too so a
		// long-idle writer does not pin released buffers.
		for i := range batch {
			batch[i] = nil
		}
	}
}

// minPooledBatchBuf seeds the coalesce buffer; it grows organically to the
// edge's typical batch footprint.
const minPooledBatchBuf = 4 << 10

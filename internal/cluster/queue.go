package cluster

import "sync"

// DefaultQueueCap bounds a per-edge frame queue when the caller does not
// choose a capacity. The bound is the backpressure contract of the live
// tier: a sender that outruns a peer's drain rate by this many frames
// blocks (push) instead of growing the heap without limit — the failure
// mode the unbounded queues of the earlier single-shot transports had under
// sustained service traffic.
const DefaultQueueCap = 1 << 14

// QueueStats counts one queue's admission decisions. Counters are
// cumulative; Depth and MaxDepth describe occupancy.
type QueueStats struct {
	// Enqueued counts accepted items.
	Enqueued int64
	// Shed counts rejected items: any push after close (shutdown drops,
	// exactly like messages still in flight when a run ends), a frame the
	// Mux refused as over wire.MaxFrame, or a tryPush against a full queue.
	Shed int64
	// Waits counts pushes that found the queue full and blocked — each is
	// one backpressure event propagated to the producer.
	Waits int64
	// Depth is the current occupancy; MaxDepth the high-water mark.
	Depth    int64
	MaxDepth int64
}

func (s *QueueStats) add(o QueueStats) {
	s.Enqueued += o.Enqueued
	s.Shed += o.Shed
	s.Waits += o.Waits
	s.Depth += o.Depth
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// queue is a bounded FIFO connecting a producer to a consumer pump. A full
// queue blocks push (backpressure) or rejects tryPush (shedding; only the
// drain benchmark produces that way), both accounted in QueueStats; closing
// wakes every waiter. The previous generation of this type was unbounded — mirroring the paper's
// arbitrarily-many-messages-in-flight network model — which is the right
// model for one bounded-length protocol run but lets a long-lived service
// trade memory for a slow peer forever; the bound turns that into explicit,
// observable backpressure.
type queue[T any] struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	nonFull  *sync.Cond
	items    []T
	head     int
	capacity int
	closed   bool
	stats    QueueStats
}

// newQueue builds a queue bounded at capacity (<= 0 means DefaultQueueCap).
func newQueue[T any](capacity int) *queue[T] {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	q := &queue[T]{capacity: capacity}
	q.nonEmpty = sync.NewCond(&q.mu)
	q.nonFull = sync.NewCond(&q.mu)
	return q
}

func (q *queue[T]) depth() int { return len(q.items) - q.head }

// push appends an item, blocking while the queue is full (one Waits count
// per blocking event). It reports false when the queue is closed — before
// or while waiting — and the item is then dropped and counted as shed.
func (q *queue[T]) push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.depth() >= q.capacity && !q.closed {
		q.stats.Waits++
		for q.depth() >= q.capacity && !q.closed {
			q.nonFull.Wait()
		}
	}
	if q.closed {
		q.stats.Shed++
		return false
	}
	q.enqueue(v)
	return true
}

// tryPush appends an item only when there is room right now; a full or
// closed queue sheds it (counted) and reports false.
func (q *queue[T]) tryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.depth() >= q.capacity {
		q.stats.Shed++
		return false
	}
	q.enqueue(v)
	return true
}

// countShed records an item its producer refused before offering it — the
// Mux's oversize check — so no dropped frame goes uncounted.
func (q *queue[T]) countShed() {
	q.mu.Lock()
	q.stats.Shed++
	q.mu.Unlock()
}

func (q *queue[T]) enqueue(v T) {
	// Compact the consumed prefix before growing past it: memory stays
	// O(capacity) without a preallocated ring (queues are per-edge, and
	// large graphs have many edges).
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
	q.stats.Enqueued++
	if d := int64(q.depth()); d > q.stats.MaxDepth {
		q.stats.MaxDepth = d
	}
	q.nonEmpty.Signal()
}

// popBatch blocks for at least one item, then moves up to cap(dst) queued
// items into dst[:0] under a single lock acquisition, so a writer drains a
// burst with one mutex round-trip instead of one per frame. Order is
// preserved (FIFO) and every drained slot wakes blocked pushers.
// ok is false once the queue is closed; cap(dst) must be non-zero.
func (q *queue[T]) popBatch(dst []T) (batch []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth() == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.closed {
		return dst[:0], false
	}
	n := q.depth()
	if m := cap(dst); n > m {
		n = m
	}
	dst = dst[:0]
	var zero T
	for i := 0; i < n; i++ {
		dst = append(dst, q.items[q.head])
		q.items[q.head] = zero // release the reference
		q.head++
	}
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	// A batch frees many slots at once: wake every blocked pusher, not one.
	q.nonFull.Broadcast()
	return dst, true
}

// close wakes all waiters; pending items are abandoned.
func (q *queue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.nonFull.Broadcast()
}

// snapshot returns the queue's stats with Depth filled from the current
// occupancy.
func (q *queue[T]) snapshot() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Depth = int64(q.depth())
	return s
}

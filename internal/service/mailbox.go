package service

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/wire"
)

// An instance is a mailbox, not a goroutine. Whoever has frames for it — a
// connection's reader, or the submitter / OPEN handler that just created it —
// appends them to the box under boxMu; if nobody is running the instance that
// goroutine becomes its runner and calls the node's Start/Deliver inline
// until the box is empty, otherwise it goes back to its socket and the runner
// picks the frames up. One runner at a time is the Handler contract; posters
// append in arrival order, so per-link FIFO holds by construction. DESIGN.md,
// "Who runs an instance", has the reasons and the numbers.
const (
	// boxCap bounds the frames posted and not yet taken. A poster that finds
	// the box full waits for the runner (an idle instance's box is empty):
	// inbound flow control on that peer's connection.
	boxCap = cluster.DefaultQueueCap
	// runBudget is how many frames a reader or submitter delivers for one
	// instance before it hands the rest to a fresh goroutine, so a peer
	// flooding an instance cannot hold another link's reader captive.
	runBudget = 256
	unbounded = -1 // a hand-off goroutine's budget: it has nothing to go back to
)

// instance is one consensus instance's machinery at this vertex.
type instance struct {
	inst     uint64
	protocol string
	nd       *node.Node
	started  time.Time

	boxMu   sync.Mutex
	space   sync.Cond      // posters parked at boxCap; L is &boxMu
	box     []node.Inbound // posted frames, arrival order
	running bool           // someone holds the runner role; finish never gives it back
	closed  bool           // retired or retiring: posts are late frames

	// Runner-owned; these change hands with the role.
	batch  []node.Inbound // taken from box; batch[next:] is undelivered
	next   int
	err    error       // the Start/Deliver failure that retired the instance
	linger *time.Timer // armed by the decision

	mu       sync.Mutex
	decision *Decision
	waiters  []chan Decision
}

func newInstance(inst uint64, protocol string) *instance {
	ins := &instance{inst: inst, protocol: protocol, started: time.Now()}
	ins.space.L = &ins.boxMu
	return ins
}

// post appends one connection's same-instance run to the mailbox and, when
// the instance is idle, runs it. Ownership of the frames transfers.
func (d *Daemon) post(ins *instance, from int, frames [][]byte) {
	ins.boxMu.Lock()
	for len(ins.box) >= boxCap && !ins.closed {
		ins.space.Wait()
	}
	if ins.closed {
		ins.boxMu.Unlock()
		d.dropLate(frames)
		return
	}
	if ins.box == nil {
		ins.box = node.GetSlab()
	}
	for _, frame := range frames {
		ins.box = append(ins.box, node.Inbound{From: from, Frame: frame})
	}
	idle := !ins.running
	ins.running = true
	ins.boxMu.Unlock()
	if idle {
		d.run(ins, runBudget)
	}
}

// run delivers until the box is empty, the instance is closed or budget
// frames are done. The caller holds the runner role.
func (d *Daemon) run(ins *instance, budget int) {
	for {
		if ins.next == len(ins.batch) && !d.take(ins) {
			return
		}
		if budget == 0 {
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				d.run(ins, unbounded)
			}()
			return
		}
		budget--
		in := ins.batch[ins.next]
		ins.next++
		if ins.err = ins.nd.Deliver(in); ins.err != nil {
			d.finish(ins)
			return
		}
	}
}

// take swaps the delivered batch for the box's contents. False means the
// runner is done: the box was empty and the role is released, or the
// instance was closed — the role is kept, for good — and is now finished.
func (d *Daemon) take(ins *instance) bool {
	ins.boxMu.Lock()
	if closed := ins.closed; closed || len(ins.box) == 0 {
		ins.running = closed
		ins.boxMu.Unlock()
		if closed {
			d.finish(ins)
		}
		return false
	}
	clear(ins.batch) // delivered and released: drop the references
	ins.batch, ins.box, ins.next = ins.box, ins.batch[:0], 0
	ins.space.Broadcast()
	ins.boxMu.Unlock()
	return true
}

// retire closes the mailbox from outside the runner (the linger timer, the
// daemon stopping). An idle instance is finished here, a running one by its
// runner at its next take.
func (d *Daemon) retire(ins *instance) {
	ins.boxMu.Lock()
	idle := !ins.running
	ins.running, ins.closed = true, true
	ins.space.Broadcast()
	ins.boxMu.Unlock()
	if idle {
		d.finish(ins)
	}
}

// finish retires the instance. Only the holder of the runner role calls it
// and the role is never released afterwards, so it runs exactly once.
func (d *Daemon) finish(ins *instance) {
	if ins.err != nil {
		d.logf("service[%d]: inst=%d failed: %v", d.cfg.ID, ins.inst, ins.err)
	}
	ins.boxMu.Lock()
	ins.closed = true
	rest := ins.box
	ins.box = nil
	ins.space.Broadcast()
	ins.boxMu.Unlock()
	// What was posted and never delivered arrived too late to matter.
	for _, late := range [2][]node.Inbound{ins.batch[ins.next:], rest} {
		d.lateFrames.Add(int64(len(late)))
		for _, in := range late {
			wire.PutBuf(in.Frame)
		}
	}
	node.PutSlab(ins.batch)
	node.PutSlab(rest)
	ins.batch, ins.next = nil, 0
	if ins.linger != nil && ins.linger.Stop() {
		d.wg.Done() // the callback will not run to do it
	}

	ins.mu.Lock()
	dec := ins.decision
	waiters := ins.waiters
	ins.waiters = nil
	ins.mu.Unlock()
	sh := d.shard(ins.inst)
	sh.mu.Lock()
	delete(sh.instances, ins.inst)
	sh.retired[ins.inst] = ins.err
	if dec != nil {
		sh.decisions[ins.inst] = *dec
	}
	sh.mu.Unlock()
	// Evict the retired instance from the connection memos. A lookup racing
	// this sweep can re-install it, but that is benign: ids are never
	// reused, posts against it find it closed and land in lateFrames, and
	// the next successful lookup from that connection overwrites the entry.
	for i := range d.memo {
		d.memo[i].CompareAndSwap(ins, nil)
	}
	d.retiredN.Add(1)
	// Waiters on an instance that retired undecided learn it from the
	// closed channel, and why from the ledger.
	for _, w := range waiters {
		close(w)
	}
}

package service

import (
	"sync"
	"time"

	"repro/internal/node"
)

// An instance is its node's mailbox, not a goroutine: dispatch and open post
// frames to the node, and whichever poster finds it idle runs it inline
// (node.Post, DESIGN.md "Who runs a node"). What the service adds is
// the lifecycle around the mailbox: the OPEN that creates it, the pending
// frames it starts with, the decision, the linger before retirement, the
// waiters and the ledger.
type instance struct {
	inst     uint64
	protocol string
	nd       *node.Node
	started  time.Time

	// linger is armed by the decision and stopped by finish, both on the
	// node's runner.
	linger *time.Timer

	mu       sync.Mutex
	decision *Decision
	waiters  []chan Decision
}

// finish retires the instance: the node's closing callback, so it runs
// exactly once, on whichever goroutine held the runner role when the
// mailbox closed. err is the failure that closed it, late the frames posted
// and never delivered.
func (d *Daemon) finish(ins *instance, err error, late int) {
	if err != nil {
		d.logf("service[%d]: inst=%d failed: %v", d.cfg.ID, ins.inst, err)
	}
	d.lateFrames.Add(int64(late))
	if ins.linger != nil && ins.linger.Stop() {
		d.wg.Done() // the callback will not run to do it
	}

	// The rest runs under the shard lock: retireAll's sweep either finds the
	// instance still routed (and its node's Close joins a hand-off goroutine
	// running this) or comes after all of it, so none of it outlives Close.
	sh := d.shard(ins.inst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ins.mu.Lock()
	dec := ins.decision
	waiters := ins.waiters
	ins.waiters = nil
	ins.mu.Unlock()
	delete(sh.instances, ins.inst)
	sh.retired[ins.inst] = err
	if dec != nil {
		sh.decisions[ins.inst] = *dec
	}
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

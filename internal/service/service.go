// Package service is the consensus-as-a-service tier: a long-lived daemon
// (one per graph vertex) that multiplexes many concurrent consensus
// instances over persistent peer connections, instead of the single-shot
// lifecycle of the cluster harness. Every wire frame carries an instance
// id (codec v4); the daemon routes frames to each instance's node, posting
// them to its mailbox the way a one-shot run's readers do (node.Post), and
// keeps the lifecycle around it: machines spawned on demand from a
// repro.InstanceFactory, retired after decision (instance.go). New
// instances are announced with a flooded OPEN control frame;
// per-connection FIFO ordering guarantees a sender's OPEN precedes its
// protocol traffic, and frames that race ahead of the announcement through
// third parties wait in a bounded pending buffer.
//
// The daemon exposes three planes: the peer plane (the cluster.Mux fabric,
// bounded per-peer queues with backpressure and shed accounting), a client
// plane (JSON lines over TCP: submit, wait, stats — see Client), and an
// observability plane (HTTP /metrics and /healthz). Shutdown is graceful
// by default: drain refuses new instances, lets in-flight ones decide,
// then tears the fabric down.
package service

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultPendingCap bounds the frames buffered per not-yet-opened
// instance, and pendingPeerCap those one peer has buffered across every
// such instance; overflow is shed and counted. Honest traffic leaves
// almost nothing pending — every daemon floods its OPEN ahead of its own
// frames on each link — so the bounds are there for peers that send frames
// for instances that never open here.
const (
	DefaultPendingCap = 4096
	pendingPeerCap    = 4 * DefaultPendingCap
)

// Defaults for Config knobs left zero.
const (
	DefaultLinger       = 1500 * time.Millisecond
	DefaultDrainTimeout = 30 * time.Second
)

// maxDaemonID bounds vertex ids so instance ids can pack (seq << 10) | id.
const maxDaemonID = 1<<10 - 1

// The routing table is sharded so concurrent per-connection readers — and
// the open/retire state changes racing them — contend on 1/16th of the
// table instead of one global lock. Power-of-two count, mask selection.
const (
	routeShardBits = 4
	routeShards    = 1 << routeShardBits
)

// routeShard is one slice of the instance routing table: the running
// instances plus the full lifecycle ledger (retired ids, decisions, pending
// pre-open buffers) for every instance id that hashes here. Keeping the
// ledger beside the live map means one shard lock answers "running,
// retired, or unseen?" atomically — the invariant the pending/retire
// transitions need.
type routeShard struct {
	mu        sync.RWMutex
	instances map[uint64]*instance
	// retired and decisions grow with instance count; a service-lifetime
	// ledger (the id space is never reused, so retirement must be
	// remembered to keep late frames and duplicate OPENs out). A retired
	// entry's value is why the instance failed, nil when it did not.
	retired   map[uint64]error
	decisions map[uint64]Decision
	pending   map[uint64][]node.Inbound
}

// Config parameterizes one daemon.
type Config struct {
	// ID is the graph vertex this daemon hosts.
	ID int
	// Scenario is the shared base: graph, inputs, fault plan, eps, seed.
	// Every daemon of a deployment must be given the same scenario, the
	// same way the multi-process cluster tier shares one scenario file.
	Scenario repro.Scenario
	// Protocols lists the protocols this daemon serves (each must have a
	// live-runtime builder). Empty means just the scenario's own protocol.
	Protocols []string
	// PeerListener accepts peer-plane connections (the Mux fabric).
	PeerListener net.Listener
	// Peers maps every higher-id neighbour of ID (in or out: the lower id
	// dials the pair's one connection) to its peer-plane address; other
	// entries are ignored.
	Peers map[int]string
	// ClientListener, when non-nil, serves the JSON-lines client plane.
	ClientListener net.Listener
	// HTTPListener, when non-nil, serves /metrics and /healthz.
	HTTPListener net.Listener
	// QueueCap bounds each per-peer outbound queue (0 = cluster default).
	QueueCap int
	// Linger keeps a decided instance's machine serving peers before
	// retirement — other vertices may still need its frames to decide
	// (0 = DefaultLinger).
	Linger time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight instances
	// (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Pprof, when true, mounts the /debug/pprof handlers on the
	// observability plane and enables mutex/block profiling, so service-tier
	// contention is observable in production (see internal/prof.Attach).
	Pprof bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Decision is one instance's outcome at this daemon's vertex.
type Decision struct {
	Inst     uint64  `json:"inst"`
	Protocol string  `json:"protocol"`
	Value    float64 `json:"value"`
	// Vector is set for vector-decision protocols (acs).
	Vector    map[int]float64 `json:"vector,omitempty"`
	ElapsedMS float64         `json:"elapsedMs"`
}

// Snapshot is the observability plane's state dump (/metrics and the
// client plane's stats op).
type Snapshot struct {
	ID        int      `json:"id"`
	UptimeSec float64  `json:"uptimeSec"`
	Draining  bool     `json:"draining"`
	Protocols []string `json:"protocols"`

	Submitted   int64 `json:"submitted"`
	Opened      int64 `json:"opened"`
	Decided     int64 `json:"decided"`
	Retired     int64 `json:"retired"`
	Active      int64 `json:"active"`
	LateFrames  int64 `json:"lateFrames"`
	PendingShed int64 `json:"pendingShed"`
	Refused     int64 `json:"refused"`
	BadFrames   int64 `json:"badFrames"`

	DecisionsPerSec float64 `json:"decisionsPerSec"`

	Queue       cluster.QueueStats `json:"queue"`
	QueueDepths map[int]int64      `json:"queueDepths"`
}

type vectorProvider interface{ Vector() map[int]float64 }

// Daemon is one vertex's consensus service.
type Daemon struct {
	cfg   Config
	facs  map[string]*repro.InstanceFactory
	names []string
	mux   *cluster.Mux

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	start   time.Time
	httpSrv *http.Server

	// shards is the instance routing table (see routeShard). The dispatch
	// hot path takes one shard's read lock once per same-instance frame
	// group; state changes (open, retire, pending buffering) take that
	// shard's write lock and leave the other 15 shards untouched.
	shards [routeShards]routeShard
	// memo caches, per inbound connection, the last instance that peer's
	// frames routed to: pipelined traffic is heavily run-structured, so
	// most groups hit the memo and skip the shard lock entirely. Entries
	// are atomic pointers because a peer that double-connects would give
	// two readers the same index. A stale entry is harmless — instance ids
	// are never reused, so a memoized retired instance refuses the post (its
	// mailbox is closed) and the frames land in lateFrames, exactly like the
	// retired-ledger path.
	memo []atomic.Pointer[instance]
	// pendingBy counts, per sending peer, the frames it has in pending
	// across every instance id (bounded by pendingPeerCap).
	pendingBy []atomic.Int64
	seq       uint64
	draining  atomic.Bool

	submitted, opened, decided, retiredN    atomic.Int64
	lateFrames, pendingShed, refused, badFr atomic.Int64
}

// New validates the config and builds the daemon (no goroutines; Start).
func New(cfg Config) (*Daemon, error) {
	if cfg.ID < 0 || cfg.ID > maxDaemonID {
		return nil, fmt.Errorf("service: daemon id %d outside [0,%d]", cfg.ID, maxDaemonID)
	}
	if cfg.Linger == 0 {
		cfg.Linger = DefaultLinger
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	names := cfg.Protocols
	if len(names) == 0 {
		if cfg.Scenario.Protocol == "" {
			return nil, errors.New("service: config names no protocols and the scenario has none")
		}
		names = []string{cfg.Scenario.Protocol}
	}
	d := &Daemon{
		cfg:  cfg,
		facs: make(map[string]*repro.InstanceFactory, len(names)),
	}
	d.initShards()
	for _, name := range names {
		if _, dup := d.facs[name]; dup {
			continue
		}
		fac, err := repro.NewInstanceFactoryFor(cfg.Scenario, name)
		if err != nil {
			return nil, fmt.Errorf("service: protocol %q: %w", name, err)
		}
		d.facs[name] = fac
		d.names = append(d.names, name)
	}
	sort.Strings(d.names)
	fac := d.facs[d.names[0]]
	d.memo = make([]atomic.Pointer[instance], fac.Graph().N())
	d.pendingBy = make([]atomic.Int64, fac.Graph().N())
	mux, err := cluster.NewMux(cluster.MuxConfig{
		ID:           cfg.ID,
		Graph:        fac.Graph(),
		Listener:     cfg.PeerListener,
		Peers:        cfg.Peers,
		QueueCap:     cfg.QueueCap,
		OnFrameBatch: d.dispatchBatch,
	})
	if err != nil {
		return nil, err
	}
	d.mux = mux
	return d, nil
}

func (d *Daemon) initShards() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.instances = make(map[uint64]*instance)
		sh.retired = make(map[uint64]error)
		sh.decisions = make(map[uint64]Decision)
		sh.pending = make(map[uint64][]node.Inbound)
	}
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Protocols lists the served protocols, sorted.
func (d *Daemon) Protocols() []string { return append([]string(nil), d.names...) }

// DefaultProtocol is the protocol a submit with no name gets: the
// scenario's own when served, else the first served name.
func (d *Daemon) DefaultProtocol() string {
	if _, ok := d.facs[d.cfg.Scenario.Protocol]; ok && d.cfg.Scenario.Protocol != "" {
		return d.cfg.Scenario.Protocol
	}
	return d.names[0]
}

// Start launches the peer fabric and the client/observability planes.
func (d *Daemon) Start(ctx context.Context) {
	d.ctx, d.cancel = context.WithCancel(ctx)
	d.start = time.Now()
	d.mux.Start(d.ctx)
	if d.cfg.ClientListener != nil {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveClients(d.cfg.ClientListener)
		}()
	}
	if d.cfg.HTTPListener != nil {
		d.serveHTTP(d.cfg.HTTPListener)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		<-d.ctx.Done()
		if d.cfg.ClientListener != nil {
			d.cfg.ClientListener.Close()
		}
		d.retireAll()
	}()
}

// retireAll closes every instance once the daemon's context is done: linger
// timers stop, posters parked at a full mailbox leave, undelivered frames
// return to the pool. open refuses under the shard lock from the moment the
// context ends, so an instance this sweep does not see was never published.
func (d *Daemon) retireAll() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		live := slices.Collect(maps.Values(sh.instances))
		sh.mu.RUnlock()
		for _, ins := range live {
			ins.nd.Close()
		}
	}
}

// shard selects inst's routing-table slice. Instance ids pack
// (seq << 10) | daemonID, so the low bits carry the *daemon* id — plain
// masking would land every instance a given daemon submits in one shard.
// A multiplicative (Fibonacci) hash mixes all the bits into the top ones.
func (d *Daemon) shard(inst uint64) *routeShard {
	return &d.shards[(inst*0x9E3779B97F4A7C15)>>(64-routeShardBits)]
}

// dispatchBatch consumes one peer-plane read burst: frames in per-link
// arrival order, each routing header already peeked by the socket reader
// (never re-parsed here). OPEN announcements spawn instances; protocol
// frames route to their instance's mailbox. Frames are grouped into maximal
// consecutive runs of the same instance id and each run pays one route
// lookup and one mailbox post — the batch discipline's whole point. Only
// *consecutive* frames group, so processing stays in scan order and per-link
// FIFO is preserved by construction: a frame is never dispatched before an
// earlier frame of the same connection, whatever the interleaving of
// instances. OPENs are consumed
// inline at their arrival position (they order before the sender's own
// protocol frames). Ownership of every frame transfers with the call; the
// frames/infos slices are the caller's scratch and are not retained.
func (d *Daemon) dispatchBatch(from int, frames [][]byte, infos []wire.FrameInfo) {
	for i := 0; i < len(frames); {
		fi := infos[i]
		if fi.Bad {
			wire.PutBuf(frames[i])
			d.badFr.Add(1)
			i++
			continue
		}
		if fi.Open {
			d.handleOpen(fi.Inst, frames[i])
			i++
			continue
		}
		j := i + 1
		for j < len(frames) && !infos[j].Bad && !infos[j].Open && infos[j].Inst == fi.Inst {
			j++
		}
		// One run: memo hit or one shard read-lock lookup, then one mailbox
		// post; an instance not running here takes the pending slow path.
		ins := d.lookup(from, fi.Inst)
		if ins == nil {
			ins = d.bufferPendingGroup(from, fi.Inst, frames[i:j])
		}
		if ins != nil && !ins.nd.Post(from, frames[i:j]) {
			d.dropLate(frames[i:j]) // retired since the lookup
		}
		i = j
	}
}

// handleOpen consumes one OPEN announcement frame (released here — OPENs
// never reach an instance's mailbox).
func (d *Daemon) handleOpen(inst uint64, frame []byte) {
	_, msg, err := wire.DecodeInstanceMessage(frame)
	wire.PutBuf(frame)
	if err != nil {
		d.badFr.Add(1)
		return
	}
	op, ok := msg.Payload.(wire.Open)
	if !ok {
		d.badFr.Add(1)
		return
	}
	if err := d.open(inst, op.Protocol); err != nil {
		d.logf("service[%d]: refused open inst=%d: %v", d.cfg.ID, inst, err)
	}
}

// lookup finds a running instance, consulting the per-connection memo
// before the shard table and refreshing the memo on a table hit.
func (d *Daemon) lookup(from int, inst uint64) *instance {
	memo := from >= 0 && from < len(d.memo)
	if memo {
		if ins := d.memo[from].Load(); ins != nil && ins.inst == inst {
			return ins
		}
	}
	sh := d.shard(inst)
	sh.mu.RLock()
	ins := sh.instances[inst]
	sh.mu.RUnlock()
	if ins != nil && memo {
		d.memo[from].Store(ins)
	}
	return ins
}

// bufferPendingGroup is dispatch's slow path: under the shard write
// lock, recheck (the instance may have opened or retired between the
// lookup and here), then buffer the run for the not-yet-opened instance,
// bounded by DefaultPendingCap per instance and pendingPeerCap per sending
// peer, with per-frame shed accounting. It returns the instance when it
// turns out to be running, for the caller to post to.
func (d *Daemon) bufferPendingGroup(from int, inst uint64, frames [][]byte) *instance {
	sh := d.shard(inst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ins, running := sh.instances[inst]; running {
		return ins
	}
	if _, gone := sh.retired[inst]; gone {
		d.dropLate(frames)
		return nil
	}
	pend := sh.pending[inst]
	for _, frame := range frames {
		// The peer's count is shared by every shard: two of its
		// connections racing here can overshoot it by a frame each.
		if len(pend) >= DefaultPendingCap || d.pendingBy[from].Load() >= pendingPeerCap {
			d.pendingShed.Add(1)
			wire.PutBuf(frame)
			continue
		}
		d.pendingBy[from].Add(1)
		pend = append(pend, node.Inbound{From: from, Frame: frame})
	}
	sh.pending[inst] = pend
	return nil
}

// takePending removes inst's buffered frames from the table and from their
// senders' budgets. The caller holds sh.mu and owns the frames.
func (d *Daemon) takePending(sh *routeShard, inst uint64) []node.Inbound {
	pend := sh.pending[inst]
	delete(sh.pending, inst)
	for _, in := range pend {
		d.pendingBy[in.From].Add(-1)
	}
	return pend
}

// dropLate releases a run of frames that arrived after their instance
// retired (or mid-teardown), counting each.
func (d *Daemon) dropLate(frames [][]byte) {
	d.lateFrames.Add(int64(len(frames)))
	for _, frame := range frames {
		wire.PutBuf(frame)
	}
}

// Submit starts a new instance of protocol (the daemon default when
// empty), announces it to the peers, and returns its id.
func (d *Daemon) Submit(protocol string) (uint64, error) {
	if protocol == "" {
		protocol = d.DefaultProtocol()
	}
	seq := atomic.AddUint64(&d.seq, 1)
	inst := seq<<10 | uint64(d.cfg.ID)
	if err := d.open(inst, protocol); err != nil {
		return 0, err
	}
	d.submitted.Add(1)
	return inst, nil
}

// open spawns instance inst running protocol, floods the OPEN announcement
// and starts the machine, which then runs any buffered frames as the
// instance's first runner. Duplicate opens (every daemon re-floods the
// first sighting) are no-ops. A refusal sheds the id's buffered frames and
// records nothing, so a faulty peer's bogus OPEN (no OPEN is checked against
// its id's originator) cannot keep the genuine one out.
func (d *Daemon) open(inst uint64, protocol string) error {
	if d.ctx == nil {
		return errors.New("service: daemon not started")
	}
	sh := d.shard(inst)
	sh.mu.Lock()
	if _, running := sh.instances[inst]; running {
		sh.mu.Unlock()
		return nil
	}
	if _, gone := sh.retired[inst]; gone {
		sh.mu.Unlock()
		return nil
	}
	// Spawn under the shard lock so a concurrent duplicate OPEN cannot
	// double-start; machine construction is cheap (the factory
	// pre-materialized the shared context).
	ins, err := d.spawn(inst, protocol)
	pend := d.takePending(sh, inst)
	if err != nil {
		sh.mu.Unlock()
		d.refused.Add(1)
		d.pendingShed.Add(int64(len(pend)))
		for _, in := range pend {
			wire.PutBuf(in.Frame)
		}
		return err
	}
	// The buffered pre-open frames become the head of the mailbox before the
	// instance is published, and the box does not run before Start: whatever
	// a reader posts once it can find the instance queues behind them and
	// behind the machine's start (per-link FIFO across the open boundary).
	// They fit: pending holds at most DefaultPendingCap frames, so the posts
	// never wait.
	run := make([][]byte, 0, len(pend))
	for i, in := range pend {
		run = append(run, in.Frame)
		if i+1 == len(pend) || pend[i+1].From != in.From {
			ins.nd.Post(in.From, run)
			run = run[:0]
		}
	}
	sh.instances[inst] = ins
	sh.mu.Unlock()
	d.opened.Add(1)

	// Announce before the machine's first sends enter the per-peer queues:
	// FIFO order then guarantees every peer sees our OPEN before any of
	// our protocol frames for this instance.
	d.flood(inst, protocol)
	ins.nd.Start(func(err error, late int) { d.finish(ins, err, late) })
	return nil
}

// spawn builds instance inst's machine and node, or says why it may not
// run here.
func (d *Daemon) spawn(inst uint64, protocol string) (*instance, error) {
	fac, ok := d.facs[protocol]
	if !ok {
		return nil, fmt.Errorf("service: protocol %q not served (valid values are: %v)", protocol, d.names)
	}
	if d.draining.Load() || d.ctx.Err() != nil {
		return nil, errors.New("service: draining or stopped")
	}
	h, err := fac.HandlerFor(inst, d.cfg.ID)
	if err != nil {
		return nil, err
	}
	links, err := fac.LinkFaultsFor(inst)
	if err != nil {
		return nil, err
	}
	ins := &instance{inst: inst, protocol: protocol, started: time.Now()}
	ins.nd, err = node.New(node.Config{
		ID:      d.cfg.ID,
		Graph:   fac.Graph(),
		Handler: h,
		// The Mux is the outbound: blocking bounded sends, so an instance's
		// runner feels peer backpressure directly.
		Out:        d.mux,
		Inst:       inst,
		LinkFaults: links,
		OnDecide:   func(int, float64) { d.onDecide(ins) },
	})
	return ins, err
}

// flood announces inst on every out-edge. Send blocks under backpressure —
// an announcement must not be shed, or a peer would buffer our frames in
// pending until the cap and never start the instance.
func (d *Daemon) flood(inst uint64, protocol string) {
	g := d.facs[protocol].Graph()
	for _, v := range g.Out(d.cfg.ID) {
		frame, err := wire.AppendInstanceMessage(wire.GetBuf(), inst, transport.Message{
			From: d.cfg.ID, To: v, Payload: wire.Open{Protocol: protocol},
		})
		if err != nil {
			wire.PutBuf(frame)
			d.logf("service[%d]: encode open inst=%d: %v", d.cfg.ID, inst, err)
			return
		}
		if err := d.mux.Send(v, frame); err != nil {
			d.logf("service[%d]: flood open inst=%d to %d: %v", d.cfg.ID, inst, v, err)
		}
	}
}

// onDecide records the instance's decision, releases waiters, and starts
// the linger clock toward retirement.
func (d *Daemon) onDecide(ins *instance) {
	x, ok := ins.nd.Output()
	if !ok {
		return
	}
	dec := Decision{
		Inst:      ins.inst,
		Protocol:  ins.protocol,
		Value:     x,
		ElapsedMS: float64(time.Since(ins.started)) / float64(time.Millisecond),
	}
	if vp, isVec := ins.nd.Handler().(vectorProvider); isVec {
		dec.Vector = vp.Vector()
	}
	ins.mu.Lock()
	if ins.decision != nil {
		ins.mu.Unlock()
		return
	}
	ins.decision = &dec
	waiters := ins.waiters
	ins.waiters = nil
	ins.mu.Unlock()
	d.decided.Add(1)
	for _, w := range waiters {
		w <- dec
	}
	// The machine keeps answering peers for the linger window — vertices
	// that have not decided yet may need its frames — then retires. The
	// daemon's WaitGroup counts the armed timer: its callback, or whoever
	// stops it first (finish), gives the count back.
	d.wg.Add(1)
	ins.linger = time.AfterFunc(d.cfg.Linger, func() {
		defer d.wg.Done()
		ins.nd.Close()
	})
}

// Wait blocks until instance inst decides at this vertex (or ctx ends).
// It works before the instance's OPEN has even arrived — the waiter parks
// until the decision — and returns immediately for retired instances.
func (d *Daemon) Wait(ctx context.Context, inst uint64) (Decision, error) {
	sh := d.shard(inst)
	for {
		sh.mu.RLock()
		if dec, done := sh.decisions[inst]; done {
			sh.mu.RUnlock()
			return dec, nil
		}
		if cause, gone := sh.retired[inst]; gone {
			sh.mu.RUnlock()
			if cause != nil {
				return Decision{}, fmt.Errorf("service: instance %d retired without deciding: %w", inst, cause)
			}
			return Decision{}, fmt.Errorf("service: instance %d retired without deciding", inst)
		}
		ins, running := sh.instances[inst]
		if !running {
			sh.mu.RUnlock()
			// Not yet opened here: poll cheaply until the OPEN lands. The
			// interval only delays the rare submit-elsewhere/wait-here race.
			select {
			case <-time.After(5 * time.Millisecond):
				continue
			case <-ctx.Done():
				return Decision{}, ctx.Err()
			}
		}
		// Park under the shard lock, which finish collects the waiters under.
		ch := make(chan Decision, 1)
		ins.mu.Lock()
		dec := ins.decision
		if dec == nil {
			ins.waiters = append(ins.waiters, ch)
		}
		ins.mu.Unlock()
		sh.mu.RUnlock()
		if dec != nil {
			return *dec, nil
		}
		select {
		case dec, ok := <-ch:
			if !ok {
				continue // retired undecided: the ledger says why
			}
			return dec, nil
		case <-ctx.Done():
			return Decision{}, ctx.Err()
		}
	}
}

// SubmitWait is Submit then Wait.
func (d *Daemon) SubmitWait(ctx context.Context, protocol string) (Decision, error) {
	inst, err := d.Submit(protocol)
	if err != nil {
		return Decision{}, err
	}
	return d.Wait(ctx, inst)
}

// Snapshot dumps the daemon's counters (the /metrics body).
func (d *Daemon) Snapshot() Snapshot {
	draining := d.draining.Load()
	up := time.Since(d.start).Seconds()
	dec := d.decided.Load()
	s := Snapshot{
		ID:          d.cfg.ID,
		UptimeSec:   up,
		Draining:    draining,
		Protocols:   d.Protocols(),
		Submitted:   d.submitted.Load(),
		Opened:      d.opened.Load(),
		Decided:     dec,
		Retired:     d.retiredN.Load(),
		Active:      d.active(),
		LateFrames:  d.lateFrames.Load(),
		PendingShed: d.pendingShed.Load(),
		Refused:     d.refused.Load(),
		BadFrames:   d.badFr.Load(),
		Queue:       d.mux.QueueStats(),
		QueueDepths: d.mux.QueueDepths(),
	}
	if up > 0 {
		s.DecisionsPerSec = float64(dec) / up
	}
	return s
}

// BeginDrain flips the daemon into drain mode: submits and peer OPENs are
// refused, in-flight instances keep running.
func (d *Daemon) BeginDrain() {
	d.draining.Store(true)
	d.logf("service[%d]: draining", d.cfg.ID)
}

// active counts the instances in flight.
func (d *Daemon) active() (n int64) {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		n += int64(len(sh.instances))
		sh.mu.RUnlock()
	}
	return n
}

// Drained reports whether no instances remain in flight.
func (d *Daemon) Drained() bool { return d.active() == 0 }

// Shutdown drains gracefully: refuse new work, wait for in-flight
// instances to decide and retire (bounded by DrainTimeout or ctx), then
// tear the fabric down. The error reports an unfinished drain; teardown
// happens regardless.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.BeginDrain()
	deadline := time.NewTimer(d.cfg.DrainTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for !d.Drained() {
		select {
		case <-tick.C:
		case <-deadline.C:
			err = errors.New("service: drain timeout with instances in flight")
			break wait
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		}
	}
	d.Close()
	return err
}

// Close tears the daemon down immediately: in-flight instances are retired
// undecided (retireAll), like messages in flight at the end of a run. When
// it returns the daemon owns no goroutine and no timer.
func (d *Daemon) Close() {
	if d.cancel != nil {
		d.cancel()
	}
	d.mux.Stop()
	d.closeHTTP()
	d.wg.Wait()
}

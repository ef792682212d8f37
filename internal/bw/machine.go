package bw

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Machine is the BW protocol endpoint for one nonfaulty node. It implements
// sim.Handler; all state is confined to the node's goroutine.
type Machine struct {
	proto *Proto
	plan  *plan
	pre   *nodePre
	id    int
	input float64

	cur int
	x   float64
	// rounds[r] is round r's state, nil until its first message; slot 0 is
	// unused.
	rounds []*roundState

	// ext is the reusable redundant-extension scratch for deliverVal, and
	// storage the reusable buffer a received path is extended in before it
	// is known to be worth an allocation; the machine is single-threaded
	// per the Handler contract, so one instance of each serves every
	// delivery (ext without reinitialization: epoch tagging).
	ext     redundantExt
	storage graph.Path

	output float64
	done   bool

	metrics Metrics
}

var _ sim.Handler = (*Machine)(nil)

// Metrics exposes per-node execution observability.
type Metrics struct {
	MCFires       int
	FAExecutions  int
	TrimAnomalies int
	// SeqDropped counts COMPLETE messages discarded for a sequence number
	// no honest origin reaches.
	SeqDropped int
	// History records x_v[r] after each Filter-and-Average execution.
	History []float64
	// DecidedThreads records, per round, the suspect set F_v of the
	// parallel execution that reached Filter-and-Average first.
	DecidedThreads []graph.Set
}

// NewMachine builds the node's machine over the Proto's shared plan; the
// first machine for a node computes that node's fullness and FIFO-path
// requirements. It fails if the graph's redundant-path count for some
// candidate fault set exceeds the protocol's budget.
func NewMachine(p *Proto, id int, input float64) (*Machine, error) {
	pre, err := p.nodePre(id)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		proto:  p,
		plan:   p.plan,
		pre:    pre,
		id:     id,
		input:  input,
		rounds: make([]*roundState, p.Rounds+1),
	}
	m.ext.mark = make([]uint64, p.G.N())
	return m, nil
}

// ID implements sim.Handler.
func (m *Machine) ID() int { return m.id }

// Output implements sim.Handler.
func (m *Machine) Output() (float64, bool) { return m.output, m.done }

// Snapshot returns a copy of the node's execution metrics.
func (m *Machine) Snapshot() Metrics { return m.metrics }

// History returns x_v[r] after each completed round.
func (m *Machine) History() []float64 { return m.metrics.History }

// Start implements sim.Handler: it begins round 1 by redundant-flooding the
// input value (Algorithm 1 line 4).
func (m *Machine) Start(out *sim.Outbox) {
	m.x = m.input
	if m.proto.Rounds == 0 { // K < eps: the trivial case
		m.output = m.x
		m.done = true
		return
	}
	m.cur = 1
	m.startRound(1, out)
	m.tryAdvance(out)
}

// Deliver implements sim.Handler.
func (m *Machine) Deliver(msg transport.Message, out *sim.Outbox) {
	switch p := msg.Payload.(type) {
	case ValPayload:
		m.deliverVal(&p, msg.From, out)
	case CompletePayload:
		m.deliverComplete(&p, msg.From, out)
	default:
		// Unknown payloads (from Byzantine peers) are ignored.
	}
	m.tryAdvance(out)
}

// round returns round r's state, creating it on the round's first message;
// callers have checked 1 <= r <= Rounds.
func (m *Machine) round(r int) *roundState {
	rs := m.rounds[r]
	if rs == nil {
		rs = newRoundState(r, m.proto.G.N(), m.pre)
		m.rounds[r] = rs
	}
	return rs
}

// startRound floods x_v for round r and stores the node's own trivial-path
// message.
func (m *Machine) startRound(r int, out *sim.Outbox) {
	rs := m.round(r)
	rs.started = true
	rs.x = m.x
	self := graph.Path{m.id}
	out.Broadcast(ValPayload{Round: r, Value: m.x, Path: self})
	set := graph.SetOf(m.id)
	rs.byPath[digestPath(self)] = struct{}{}
	m.acceptVal(rs, m.x, self, &set, out)
}

// extend returns path with the local node appended, in the machine's
// reusable buffer: valid until the next delivery.
func (m *Machine) extend(path graph.Path) graph.Path {
	m.storage = append(append(m.storage[:0], path...), m.id)
	return m.storage
}

// deliverVal validates, relays and stores one RedundantFlood message
// (Algorithm 4 plus the receiver-side checks of Appendix E).
func (m *Machine) deliverVal(p *ValPayload, from int, out *sim.Outbox) {
	if p.Round < 1 || p.Round > m.proto.Rounds {
		return
	}
	if len(p.Path) == 0 || p.Path.Ter() != from || !p.Path.ValidIn(m.proto.G) {
		return
	}
	storage := m.extend(p.Path)
	if !m.ext.analyze(storage) {
		return // storage itself is not a redundant path
	}

	rs := m.round(p.Round)
	// One map operation both tests and records the path: the insert leaves
	// the size unchanged exactly when the digest was already there.
	stored := len(rs.byPath)
	rs.byPath[digestPath(storage)] = struct{}{}
	if len(rs.byPath) == stored {
		return // first message per path wins (Algorithm 4 line 3)
	}
	// One copy of the extended path and one boxed payload serve every
	// relay; a path no neighbor can extend costs neither.
	var relay transport.Payload
	for _, w := range m.proto.G.Out(m.id) {
		if m.ext.extendable(w) {
			if relay == nil {
				relay = ValPayload{Round: p.Round, Value: p.Value, Path: storage.Clone()}
			}
			out.Send(w, relay)
		}
	}
	set := storage.Set()
	m.acceptVal(rs, p.Value, storage, &set, out)
}

// redundantExt answers "is storage||w still a redundant path?" in O(1) per
// neighbor. With a = length of the longest all-distinct prefix and b = start
// of the longest all-distinct suffix, a walk is redundant iff b <= a-1
// (graph.Path.IsRedundant). Appending w moves a only when the walk was fully
// distinct, and moves b to just past w's last occurrence.
//
// The scratch array is epoch-tagged rather than cleared: analyze costs
// O(len(storage)) regardless of MaxNodes, which matters when the simulator
// pushes millions of deliveries through a single machine. Entries store
// epoch<<markShift | position+1; a mismatched epoch reads as "absent".
type redundantExt struct {
	n     int
	a, b  int
	epoch uint64
	// mark is sized to the graph order at machine construction (node IDs
	// are dense in [0, n)) — a slice rather than a [graph.MaxNodes]array so
	// machines on small graphs don't carry a 32 KB scratch block under the
	// graph4096 build.
	mark []uint64
}

// markShift leaves room for positions up to 2*MaxNodes+1 in the largest
// build dimension (4096 nodes: 8193 < 1<<15; redundant paths are
// concatenations of two simple paths and longer walks are rejected up
// front). Epochs occupy the remaining 49 bits — no run gets near wrapping.
const markShift = 15

// analyze precomputes the extension test for storage; it reports false when
// storage itself is not redundant (in which case no extension is either,
// since prefixes of redundant walks are redundant).
func (e *redundantExt) analyze(storage graph.Path) bool {
	if len(storage) > 2*graph.MaxNodes {
		// No redundant path is longer than two simple paths; rejecting here
		// also keeps positions within the mark word's low bits.
		return false
	}
	e.n = len(storage)

	// Pass 1: a = length of the longest all-distinct prefix.
	e.epoch++
	tag := e.epoch << markShift
	e.a = e.n
	for i, v := range storage {
		if e.mark[v]>>markShift == e.epoch {
			e.a = i
			break
		}
		e.mark[v] = tag
	}
	// Pass 2: b = start of the longest all-distinct suffix.
	e.epoch++
	tag = e.epoch << markShift
	e.b = 0
	for i := e.n - 1; i >= 0; i-- {
		v := storage[i]
		if e.mark[v]>>markShift == e.epoch {
			e.b = i + 1
			break
		}
		e.mark[v] = tag
	}
	if e.b > e.a-1 {
		return false
	}
	// Pass 3: last occurrence index of every node on the walk.
	e.epoch++
	tag = e.epoch << markShift
	for i, v := range storage {
		e.mark[v] = tag | uint64(i+1)
	}
	return true
}

// lastIdx returns the last occurrence of w in the analyzed walk, or -1.
func (e *redundantExt) lastIdx(w int) int {
	if e.mark[w]>>markShift != e.epoch {
		return -1
	}
	return int(e.mark[w]&(1<<markShift-1)) - 1
}

// extendable reports whether appending w keeps the walk redundant.
func (e *redundantExt) extendable(w int) bool {
	last := e.lastIdx(w)
	a := e.a
	if e.a == e.n && last < 0 { // fully distinct walk, new node
		a = e.n + 1
	}
	b := e.b
	if last+1 > b {
		b = last + 1
	}
	return b <= a-1
}

// acceptVal appends the message to M_v and updates every parallel
// execution: Maximal-Consistency progress for threads whose exclusion set
// the path avoids, and outstanding Completeness clauses everywhere. The
// caller has recorded the path's digest in byPath; set is the path's nodes.
func (m *Machine) acceptVal(rs *roundState, value float64, path graph.Path, set *graph.Set, out *sim.Outbox) {
	e := int32(len(rs.vals))
	init := path.Init()
	rs.vals = append(rs.vals, value)
	rs.keys = append(rs.keys, path.Key())
	rs.sets = append(rs.sets, *set)
	rs.byInit[init] = append(rs.byInit[init], e)
	rs.order.insert(rs.keys, e)

	words := m.plan.words
	for i := range rs.threads {
		t := &rs.threads[i]
		// Membership in the fullness set is a bitmask test: every accepted
		// entry is a redundant path of G ending here, so it belongs to
		// thread t's expected set exactly when it avoids F_v — and then its
		// initial node reaches v outside F_v, so it has a rank in reach.
		if !t.mcFired && !t.inconsistent && !intersects(set, &t.pre.fv, words) {
			o := &t.origins[rankIn(&t.pre.reach, init)]
			if o.seen && o.val != value {
				t.inconsistent = true
			} else {
				o.val, o.seen = value, true
			}
			t.missing--
			if t.missing == 0 && !t.inconsistent {
				m.fireMC(rs, t, out)
			}
		}
		if t.snapshotDone && t.pendingLeft > 0 {
			for _, cl := range t.clauseByInit[init] {
				if cl.satisfied || cl.want != value {
					continue
				}
				cl.addPath(set)
				if cl.satisfied {
					clauseSatisfied(t, cl)
				}
			}
		}
	}
}

// fireMC executes lines 10-11: the Maximal-Consistency condition holds for
// this thread for the first time, so the node FIFO-floods
// (M_v excluding F_v, COMPLETE(F_v)). The entries go out sorted by path key
// so that equal message sets serialize identically: a filtered walk of the
// round's key order.
func (m *Machine) fireMC(rs *roundState, t *threadState, out *sim.Outbox) {
	t.mcFired = true
	m.metrics.MCFires++

	// Exactly the fullness set: missing just reached zero.
	entries := make([]ValEntry, 0, t.pre.expectedCount)
	words := m.plan.words
	for _, e := range rs.order.sorted(rs.keys) {
		if !intersects(&rs.sets[e], &t.pre.fv, words) {
			entries = append(entries, ValEntry{Value: rs.vals[e], PathKey: rs.keys[e]})
		}
	}

	rs.outSeq++
	self := graph.Path{m.id}
	payload := CompletePayload{
		Round:   rs.round,
		Origin:  m.id,
		Seq:     rs.outSeq,
		Tag:     t.pre.fv,
		Entries: entries,
		Path:    self,
	}
	out.Broadcast(payload)
	// The node FIFO-receives its own flood through the trivial path <v>.
	set := graph.SetOf(m.id)
	m.registerComplete(rs, m.floodInfo(&payload), m.stream(rs, digestPath(self), &set))
}

// stream returns the round's FIFO stream for the storage path with the
// given digest and node set, creating it on first use.
func (m *Machine) stream(rs *roundState, dig pathDigest, set *graph.Set) *fifoStream {
	st, ok := rs.streams[dig]
	if !ok {
		st = &fifoStream{digest: dig, set: *set, next: 1}
		rs.streams[dig] = st
	}
	return st
}

// deliverComplete validates, relays and FIFO-buffers one COMPLETE message.
func (m *Machine) deliverComplete(p *CompletePayload, from int, out *sim.Outbox) {
	if p.Round < 1 || p.Round > m.proto.Rounds || p.Seq < 1 {
		return
	}
	if len(p.Path) == 0 || p.Path.Ter() != from || p.Path.Init() != p.Origin || !p.Path.ValidIn(m.proto.G) {
		return
	}
	if p.Tag.Count() > m.proto.F || p.Tag.Has(p.Origin) {
		return // no honest thread floods such a tag (line 5)
	}
	if p.Seq > m.plan.seqCap {
		// An honest origin floods once per thread per round, so no honest
		// stream reaches this number; parking it would let one Byzantine
		// in-neighbor grow the buffer, and the relay traffic, without bound.
		m.metrics.SeqDropped++
		return
	}
	storage := m.extend(p.Path)
	var set graph.Set
	for _, v := range storage {
		if !addNode(&set, v) {
			return // FIFO floods use simple paths only (Appendix F)
		}
	}
	rs := m.round(p.Round)
	// The stream is keyed by (origin, path); the path digest alone suffices
	// because the path begins at the origin (validated above).
	st := m.stream(rs, digestPath(storage), &set)
	if p.Seq < st.next || (p.Seq <= len(st.buf) && st.buf[p.Seq-1] != nil) {
		return // first message per (origin, path, seq) wins
	}
	// Relay before FIFO reordering: forwarding is immediate, ordering is
	// enforced receiver-side. As for VAL, one path copy and one boxed
	// payload serve every relay.
	var relay transport.Payload
	for _, w := range m.proto.G.Out(m.id) {
		if !hasNode(&set, w) {
			if relay == nil {
				fwd := *p
				fwd.Path = storage.Clone()
				relay = fwd
			}
			out.Send(w, relay)
		}
	}
	for len(st.buf) < p.Seq {
		st.buf = append(st.buf, nil)
	}
	st.buf[p.Seq-1] = m.floodInfo(p)
	for st.next <= len(st.buf) && st.buf[st.next-1] != nil {
		info := st.buf[st.next-1]
		st.next++
		m.registerComplete(rs, info, st)
	}
}

// floodKey identifies a COMPLETE payload's content by the identity of its
// (immutable, relay-shared) entry slice, so the flood summary is computed
// once per distinct flood rather than once per delivered copy — and, via
// the Proto's shared cache, once per run rather than once per receiver.
// Two payloads sharing the same backing array and origin differ at most in
// their tag, which the cached summary records and floodInfo compares.
type floodKey struct {
	origin int
	first  *ValEntry
	n      int
}

// floodInfo returns the shared summary of p's content, computing it on
// first sight of the flood in this run.
func (m *Machine) floodInfo(p *CompletePayload) *floodInfo {
	var first *ValEntry
	if len(p.Entries) > 0 {
		first = &p.Entries[0]
	}
	fk := floodKey{origin: p.Origin, first: first, n: len(p.Entries)}
	if v, ok := m.proto.floods.Load(fk); ok {
		if info := v.(*floodInfo); info.tag == p.Tag {
			return info
		}
		// The same entries under another tag (a Byzantine relay's doing):
		// summarized per delivery, the cache slot stays with the first.
		return m.proto.newFloodInfo(p)
	}
	// LoadOrStore, not Store: machines on different cluster event loops
	// may race to summarize the same flood. The summary is a pure function
	// of the payload content, so whichever instance wins the race is
	// equivalent — LoadOrStore just keeps one canonical pointer in the map.
	info := m.proto.newFloodInfo(p)
	if v, loaded := m.proto.floods.LoadOrStore(fk, info); loaded && v.(*floodInfo).tag == p.Tag {
		return v.(*floodInfo)
	}
	return info
}

// registerComplete processes one FIFO-delivered COMPLETE: it records the
// content, advances the FIFO-Receive-All condition of the thread whose
// suspect set matches the tag, and — when that condition fires — snapshots
// the qualifying COMPLETE messages for verification (Algorithm 1 lines
// 12-13 and the Section 4.3 snapshot semantics).
func (m *Machine) registerComplete(rs *roundState, info *floodInfo, st *fifoStream) {
	ci, ok := rs.contentIdx[info.key]
	if !ok {
		ci = int32(len(rs.contents))
		rs.contentIdx[info.key] = ci
		rs.contents = append(rs.contents, contentRecord{info: info})
	}
	rec := &rs.contents[ci]
	rec.via = append(rec.via, st)

	if info.tagIdx < 0 {
		return
	}
	ti := m.pre.threadOf[info.tagIdx]
	if ti < 0 {
		return
	}
	t := &rs.threads[ti]
	if t.fifoDone {
		return
	}
	r := rankIn(&t.pre.reach, info.key.origin)
	if r < 0 {
		return // origin outside reach_v(F_v); not part of the condition
	}
	num, need := t.pre.required[st.digest]
	if !need {
		return
	}
	o := &t.origins[r]
	var fp *fifoProgress
	for i := range o.progress {
		if o.progress[i].content == ci {
			fp = &o.progress[i]
			break
		}
	}
	if fp == nil {
		o.progress = append(o.progress, fifoProgress{content: ci, got: make([]uint64, (t.pre.need[r]+63)>>6)})
		fp = &o.progress[len(o.progress)-1]
	}
	if bit := uint64(1) << (num & 63); fp.got[num>>6]&bit == 0 {
		fp.got[num>>6] |= bit
		fp.count++
	}
	if fp.count == t.pre.need[r] && !o.satisfied {
		o.satisfied = true
		t.satCount++
		if t.satCount == t.pre.origins {
			t.fifoDone = true
			m.buildSnapshot(rs, t)
		}
	}
}

// buildSnapshot freezes the set of COMPLETE messages this thread must
// verify: every consistent content FIFO-received so far through at least
// one simple (c,v)-path inside reach_v(F_v) (Verify, lines 20-26). Each
// snapshot member contributes the Algorithm 2 clauses its tag's plan list
// names; clause state is shared across snapshot members imposing the same
// (S, q, want) obligation.
func (m *Machine) buildSnapshot(rs *roundState, t *threadState) {
	t.clauseByInit = make([][]*clause, m.proto.G.N())
	words := m.plan.words
	for ci := range rs.contents {
		rec := &rs.contents[ci]
		if !rec.info.consistent {
			continue
		}
		qualifies := false
		for _, st := range rec.via {
			if within(&st.set, &t.pre.reach, words) {
				qualifies = true
				break
			}
		}
		if !qualifies {
			continue
		}
		pi := int32(len(t.pending))
		var pc pendingComplete
		// A tag that is no fault set has no source components, hence no
		// clauses.
		if rec.info.tagIdx >= 0 {
			for _, c := range m.plan.clauses[rec.info.tagIdx] {
				want, ok := rec.info.value(int(c.q))
				if !ok {
					pc.impossible = true
					break
				}
				cl := m.sharedClause(rs, t, c, want)
				if !cl.satisfied {
					pc.remaining++
					cl.subscribers = append(cl.subscribers, pi)
				}
			}
		}
		t.pending = append(t.pending, pc)
		if pc.impossible || pc.remaining > 0 {
			t.pendingLeft++
		}
	}
	t.snapshotDone = true
}

// sharedClause returns the thread's clause for (S, q, want), creating and
// pre-feeding it from the current M_v on first use.
func (m *Machine) sharedClause(rs *roundState, t *threadState, c planClause, want float64) *clause {
	wantBits := math.Float64bits(want)
	for _, cl := range t.clauseByInit[c.q] {
		if cl.comp == c.comp && math.Float64bits(cl.want) == wantBits {
			return cl
		}
	}
	cl := &clause{
		comp: c.comp, want: want, f: m.proto.F,
		allowed: m.plan.comps[c.comp].outside.Remove(m.id),
	}
	for _, e := range rs.byInit[c.q] {
		if rs.vals[e] == want {
			cl.addPath(&rs.sets[e])
			if cl.satisfied {
				break
			}
		}
	}
	t.clauseByInit[c.q] = append(t.clauseByInit[c.q], cl)
	return cl
}

// clauseSatisfied fans a newly satisfied clause out to its subscribers.
func clauseSatisfied(t *threadState, cl *clause) {
	for _, pi := range cl.subscribers {
		pc := &t.pending[pi]
		if pc.impossible {
			continue
		}
		pc.remaining--
		if pc.remaining == 0 {
			t.pendingLeft--
		}
	}
	cl.subscribers = nil
}

// tryAdvance executes Filter-and-Average once some parallel execution of
// the current round is fully verified, then starts the next round; it loops
// because buffered future-round messages can complete several rounds in one
// delivery.
func (m *Machine) tryAdvance(out *sim.Outbox) {
	for !m.done {
		rs := m.rounds[m.cur]
		if rs == nil || !rs.started || rs.advanced {
			return
		}
		var winner *threadState
		for i := range rs.threads {
			if rs.threads[i].verified() {
				winner = &rs.threads[i]
				break
			}
		}
		if winner == nil {
			return
		}
		rs.advanced = true
		m.x = m.filterAndAverage(rs)
		m.metrics.FAExecutions++
		m.metrics.History = append(m.metrics.History, m.x)
		m.metrics.DecidedThreads = append(m.metrics.DecidedThreads, winner.pre.fv)
		if m.cur == m.proto.Rounds {
			m.output = m.x
			m.done = true
			return
		}
		m.cur++
		m.startRound(m.cur, out)
	}
}

// filterAndAverage implements Algorithm 3 with the midpoint correction
// (DESIGN.md fidelity note 1): sort M_v by value, trim the longest
// f-coverable prefix and suffix, and return the midpoint of the remaining
// extremes. The node's own trivial-path message admits no cover (a node
// never suspects itself), so the trimmed vector is always nonempty.
func (m *Machine) filterAndAverage(rs *roundState) float64 {
	// Ties in value are broken by path key: an entry's position in the
	// round's key order stands in for comparing the strings.
	byKey := rs.order.sorted(rs.keys)
	rank := make([]int32, len(byKey))
	for pos, e := range byKey {
		rank[e] = int32(pos)
	}
	order := slices.Clone(byKey)
	slices.SortFunc(order, func(a, b int32) int {
		if va, vb := rs.vals[a], rs.vals[b]; va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return int(rank[a] - rank[b])
	})
	lo := m.coverablePrefix(rs, order)
	slices.Reverse(order)
	hi := m.coverablePrefix(rs, order)
	if lo+hi >= len(order) {
		// Unreachable when the node's own message is present; defensive.
		m.metrics.TrimAnomalies++
		return rs.x
	}
	// order is descending now.
	low := rs.vals[order[len(order)-1-lo]]
	high := rs.vals[order[hi]]
	return (low + high) / 2
}

// coverablePrefix returns the largest k such that the paths of the first k
// entries of order admit an f-cover that excludes the local node (lines 2–3
// of Algorithm 3). Covering only gets harder as paths are added, so k is
// where the incremental cover filter of a clause over V \ {v} first runs
// out of candidates.
func (m *Machine) coverablePrefix(rs *roundState, order []int32) int {
	cl := clause{f: m.proto.F, allowed: m.proto.G.Nodes().Remove(m.id)}
	for k, e := range order {
		cl.addPath(&rs.sets[e])
		if cl.satisfied {
			return k
		}
	}
	return len(order)
}

// String aids debugging.
func (m *Machine) String() string {
	return fmt.Sprintf("bw.Machine(node=%d round=%d/%d x=%g done=%v)",
		m.id, m.cur, m.proto.Rounds, m.x, m.done)
}

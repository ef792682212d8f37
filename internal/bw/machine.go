package bw

import (
	"fmt"
	"math"
	"math/bits"
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

	output float64
	done   bool

	// fa is Filter-and-Average's scratch, reused round after round: the
	// round's distinct values, each table entry's bucket among them, each
	// bucket's next slot in order, and M_v's entries in (value, rank) order.
	fa struct {
		distinct            []float64
		bucket, next, order []int32
	}

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
	// PathDropped counts VAL and COMPLETE messages discarded for their
	// path: the sender is no in-neighbor, the entry it names is none of its
	// table's, or the path extended by the node is not redundant (see door);
	// or, for a COMPLETE, the path is not simple or does not start at the
	// claimed origin. An honest in-neighbor sends none.
	PathDropped int
	// NonFiniteDropped counts VAL messages carrying a NaN or infinite value
	// and COMPLETE messages with such an entry, discarded before relaying
	// (DESIGN.md fidelity note 12). No honest origin floods one.
	NonFiniteDropped int
	// History records x_v[r] after each Filter-and-Average execution.
	History []float64
}

// NewMachine builds the node's machine over the shared plan; the first
// machine for a node on a plan computes that node's fullness and FIFO-path
// requirements. It fails if the graph's redundant-path count for some
// candidate fault set exceeds the protocol's budget.
func NewMachine(p *Proto, id int, input float64) (*Machine, error) {
	pl := p.getPlan()
	pre, err := pl.nodePre(id)
	if err != nil {
		return nil, err
	}
	return &Machine{
		proto:  p,
		plan:   pl,
		pre:    pre,
		id:     id,
		input:  input,
		rounds: make([]*roundState, p.Rounds+1),
	}, nil
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
		rs = newRoundState(r, m.plan.g.N(), m.pre)
		m.rounds[r] = rs
	}
	return rs
}

// startRound floods x_v for round r and stores the node's own trivial-path
// message: entry 0 of the table.
func (m *Machine) startRound(r int, out *sim.Outbox) {
	rs := m.round(r)
	rs.started = true
	rs.x = m.x
	out.Broadcast(ValPayload{Round: r, Value: m.x, Entry: 0})
	m.acceptVal(rs, m.x, 0, out)
}

// deliverVal admits, relays and stores one RedundantFlood message
// (Algorithm 4 plus the receiver-side checks of Appendix E).
func (m *Machine) deliverVal(p *ValPayload, from int, out *sim.Outbox) {
	if p.Round < 1 || p.Round > m.proto.Rounds {
		return
	}
	e := m.pre.paths.Door(from, p.Entry)
	if e < 0 {
		m.metrics.PathDropped++
		return
	}
	if !finite(p.Value) {
		m.metrics.NonFiniteDropped++
		return
	}
	rs := m.round(p.Round)
	if rs.has[e] {
		return // first message per path wins (Algorithm 4 line 3)
	}
	// Relays name the extended path by the node's own entry, and one boxed
	// payload serves them all; a path no neighbor can extend costs nothing.
	if ext := m.pre.paths.Ext(e); len(ext) > 0 {
		var relay transport.Payload = ValPayload{Round: p.Round, Value: p.Value, Entry: e}
		for _, w := range ext {
			out.Send(int(w), relay)
		}
	}
	m.acceptVal(rs, p.Value, e, out)
}

// acceptVal adds the message on table entry e to M_v and updates the
// round's outstanding Completeness clauses and the Maximal-Consistency
// progress of every thread whose exclusion set the path avoids.
func (m *Machine) acceptVal(rs *roundState, value float64, e int32, out *sim.Outbox) {
	init, set := int(m.pre.paths.Head[e]), &m.pre.paths.Set[e]
	rs.vals[e], rs.has[e] = value, true
	rs.byInit[init] = append(rs.byInit[init], e) // within the span the plan sized

	// The round's clauses are fed once, whichever threads subscribe. One a
	// snapshot creates later is pre-fed from M_v into the same state: the
	// filter is monotone and ignores order.
	if rs.clauseByInit != nil {
		for _, cl := range rs.clauseByInit[init] {
			if cl.satisfied || cl.want != value {
				continue
			}
			cl.addPath(m.covers(cl.comp), set)
			if cl.satisfied {
				clauseSatisfied(rs, cl)
			}
		}
	}

	// Every accepted entry is a redundant path of G ending here, so it
	// belongs to thread t's fullness set exactly when it avoids F_v — the
	// plan's bit for (e, t) — and then its initial node reaches v outside
	// F_v, so it has a rank in reach.
	for w, word := range m.pre.avoiders(e) {
		for ; word != 0; word &= word - 1 {
			ti := w<<6 | bits.TrailingZeros64(word)
			t := &rs.threads[ti]
			if t.mcFired || t.inconsistent {
				continue
			}
			o := &t.origins[rankIn(&t.pre.reach, init)]
			if o.seen && o.val != value {
				t.inconsistent = true
			} else {
				o.val, o.seen = value, true
			}
			t.missing--
			if t.missing == 0 && !t.inconsistent {
				m.fireMC(rs, ti, out)
			}
		}
	}
}

// fireMC executes lines 10-11: the Maximal-Consistency condition holds for
// this thread for the first time, so the node FIFO-floods
// (M_v excluding F_v, COMPLETE(F_v)), each path named by its entry here.
// The entries go out sorted by path key so that equal message sets
// serialize identically: a filtered walk of the table in rank order.
// missing just reached zero, so every entry avoiding F_v has a value.
func (m *Machine) fireMC(rs *roundState, ti int, out *sim.Outbox) {
	t := &rs.threads[ti]
	t.mcFired = true
	m.metrics.MCFires++

	tbl := m.pre.paths
	entries := make([]ValEntry, 0, t.pre.expectedCount)
	avoids, tw, word, bit := m.pre.avoids, m.pre.threadWords, ti>>6, uint64(1)<<(ti&63)
	for _, e := range tbl.ByRank {
		if avoids[int(e)*tw+word]&bit != 0 {
			entries = append(entries, ValEntry{Value: rs.vals[e], Entry: e})
		}
	}

	rs.outSeq++
	payload := CompletePayload{
		Round:   rs.round,
		Origin:  m.id,
		Seq:     rs.outSeq,
		Tag:     t.pre.fv,
		Entries: entries,
		Entry:   0,
	}
	out.Broadcast(payload)
	// The node FIFO-receives its own flood through the trivial path <v>.
	m.registerComplete(rs, m.floodInfo(&payload), tbl.Stream[0])
}

// deliverComplete admits, relays and FIFO-buffers one COMPLETE message.
func (m *Machine) deliverComplete(p *CompletePayload, from int, out *sim.Outbox) {
	if p.Round < 1 || p.Round > m.proto.Rounds || p.Seq < 1 {
		return
	}
	// FIFO floods use simple paths only (Appendix F), and the stream is
	// keyed by (origin, path): the path alone, once it is known to begin at
	// the origin.
	tbl := m.pre.paths
	e := tbl.Door(from, p.Entry)
	if e < 0 || tbl.Stream[e] < 0 || int(tbl.Head[e]) != p.Origin {
		m.metrics.PathDropped++
		return
	}
	if p.Tag.Count() > m.plan.f || p.Tag.Has(p.Origin) {
		return // no honest thread floods such a tag (line 5)
	}
	if p.Seq > m.plan.seqCap {
		// An honest origin floods once per thread per round, so no honest
		// stream reaches this number; parking it would let one Byzantine
		// in-neighbor grow the buffer, and the relay traffic, without bound.
		m.metrics.SeqDropped++
		return
	}
	rs := m.round(p.Round)
	stream := tbl.Stream[e]
	st := &rs.streams[stream]
	if p.Seq <= st.done || (p.Seq <= len(st.buf) && st.buf[p.Seq-1] != nil) {
		return // first message per (origin, path, seq) wins
	}
	info := m.floodInfo(p)
	if !info.finite {
		m.metrics.NonFiniteDropped++
		return
	}
	// Relay before FIFO reordering: forwarding is immediate, ordering is
	// enforced receiver-side. As for VAL, relays name the path by the node's
	// own entry and one boxed payload serves them all.
	var relay transport.Payload
	for _, w := range m.plan.g.Out(m.id) {
		if !hasNode(&tbl.Set[e], w) {
			if relay == nil {
				fwd := *p
				fwd.Entry = e
				relay = fwd
			}
			out.Send(w, relay)
		}
	}
	if p.Seq == st.done+1 && len(st.buf) <= st.done {
		// The next in order with none parked after it: an honest stream's
		// usual case, which parks nothing.
		st.done++
		m.registerComplete(rs, info, stream)
		return
	}
	for len(st.buf) < p.Seq {
		st.buf = append(st.buf, nil)
	}
	st.buf[p.Seq-1] = info
	for st.done < len(st.buf) && st.buf[st.done] != nil {
		info := st.buf[st.done]
		st.done++
		m.registerComplete(rs, info, stream)
	}
}

// floodKey identifies a COMPLETE payload's content by the identity of its
// (immutable, relay-shared) entry slice: in one process every relayed copy
// of a flood shares its origin's slice, so an identity hit finds the
// flood's summary without hashing its entries. Two payloads sharing the
// same backing array and origin differ at most in their tag, which the
// cached summary records and floodInfo compares. A copy decoded off the
// wire has a slice of its own and always misses.
type floodKey struct {
	origin int
	first  *ValEntry
	n      int
}

// floodInfo returns the shared summary of p's content, computing it on
// first sight of the flood in this run. The cache holds one entry per
// distinct flood, keyed by content — origin, tag and entries, the
// contentKey registerComplete already compares — and one identity alias
// per flood, made at that first sight. A miss on the alias (a decoded
// copy, or the same entries under another tag) looks the flood up by
// content and adds nothing, so the cache grows with floods, not with
// deliveries. A content hit is reused only once its tag and entries
// compare equal to p's — O(entries), the order of the hash itself — so a
// copy whose digest collides with a cached flood's, which a Byzantine
// sender may craft, never takes that flood's values: it is summarized per
// delivery, and the slot stays with the first.
func (m *Machine) floodInfo(p *CompletePayload) *floodInfo {
	var first *ValEntry
	if len(p.Entries) > 0 {
		first = &p.Entries[0]
	}
	fk := floodKey{origin: p.Origin, first: first, n: len(p.Entries)}
	if v, ok := m.proto.aliases.Load(fk); ok {
		if info := v.(*floodInfo); info.tag == p.Tag {
			return info
		}
	}
	key := p.contentKey()
	if v, ok := m.proto.floods.Load(key); ok {
		if info := v.(*floodInfo); info.holds(p) {
			return info
		}
		return m.plan.newFloodInfo(p, key)
	}
	// LoadOrStore, not Store: machines on different cluster event loops
	// may race to summarize the same flood. The summary is a pure function
	// of the payload content, so whichever instance wins the race is
	// equivalent — LoadOrStore just keeps one canonical pointer in the map.
	info := m.plan.newFloodInfo(p, key)
	if v, loaded := m.proto.floods.LoadOrStore(key, info); loaded {
		if prior := v.(*floodInfo); prior.holds(p) {
			return prior
		}
		return info
	}
	m.proto.aliases.LoadOrStore(fk, info)
	return info
}

// registerComplete processes one COMPLETE FIFO-delivered on the numbered
// stream: it records the content, advances the FIFO-Receive-All condition
// of the thread whose suspect set matches the tag, and — when that
// condition fires — snapshots the qualifying COMPLETE messages for
// verification (Algorithm 1 lines 12-13 and the Section 4.3 snapshot
// semantics).
func (m *Machine) registerComplete(rs *roundState, info *floodInfo, stream int32) {
	tw := m.pre.threadWords
	ci, ok := rs.contentIdx[info.key]
	if !ok {
		ci = int32(len(rs.contents))
		rs.contentIdx[info.key] = ci
		rs.contents = append(rs.contents, info)
		for range tw {
			rs.qualified = append(rs.qualified, 0)
		}
	}
	qualified := rs.qualified[int(ci)*tw : (int(ci)+1)*tw]
	for i, w := range m.pre.requirers(stream) {
		qualified[i] |= w
	}

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
	num := t.pre.required[stream]
	if num < 0 {
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
		o.progress = append(o.progress, fifoProgress{content: ci, at: int32(len(rs.fifoBits))})
		fp = &o.progress[len(o.progress)-1]
		for range (t.pre.need[r] + 63) >> 6 {
			rs.fifoBits = append(rs.fifoBits, 0)
		}
	}
	if w, bit := &rs.fifoBits[fp.at+num>>6], uint64(1)<<(num&63); *w&bit == 0 {
		*w |= bit
		fp.count++
	}
	if fp.count == t.pre.need[r] && !o.satisfied {
		o.satisfied = true
		t.satCount++
		if t.satCount == t.pre.origins {
			t.fifoDone = true
			m.buildSnapshot(rs, ti)
		}
	}
}

// buildSnapshot freezes the set of COMPLETE messages thread ti must verify:
// every consistent content FIFO-received so far through at least one simple
// (c,v)-path inside reach_v(F_v) (Verify, lines 20-26). Each snapshot
// member contributes the Algorithm 2 clauses its tag's plan list names;
// clause state is shared by every snapshot member, of any thread of the
// round, imposing the same (S, q, want) obligation.
func (m *Machine) buildSnapshot(rs *roundState, ti int32) {
	t := &rs.threads[ti]
	tw, word, bit := m.pre.threadWords, int(ti>>6), uint64(1)<<(ti&63)
	member := func(ci int) bool {
		return rs.contents[ci].consistent && rs.qualified[ci*tw+word]&bit != 0
	}
	members := 0
	for ci := range rs.contents {
		if member(ci) {
			members++
		}
	}
	t.pending = make([]pendingComplete, 0, members)
	for ci, info := range rs.contents {
		if !member(ci) {
			continue
		}
		pi := int32(len(t.pending))
		var pc pendingComplete
		// A tag that is no fault set has no source components, hence no
		// clauses.
		if info.tagIdx >= 0 {
			for _, c := range m.plan.clauses[info.tagIdx] {
				want, ok := info.value(int(c.q))
				if !ok {
					pc.impossible = true
					break
				}
				cl := m.sharedClause(rs, c, want)
				if !cl.satisfied {
					pc.remaining++
					cl.subscribers = append(cl.subscribers, subscriber{thread: ti, pending: pi})
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

// sharedClause returns the round's clause for (S, q, want), creating and
// pre-feeding it from the current M_v on first use.
func (m *Machine) sharedClause(rs *roundState, c planClause, want float64) *clause {
	if rs.clauseByInit == nil {
		rs.clauseByInit = make([][]*clause, len(rs.byInit))
	}
	wantBits := math.Float64bits(want)
	for _, cl := range rs.clauseByInit[c.q] {
		if cl.comp == c.comp && math.Float64bits(cl.want) == wantBits {
			return cl
		}
	}
	cl := &clause{comp: c.comp, want: want}
	covers := m.covers(c.comp)
	for _, e := range rs.byInit[c.q] {
		if rs.vals[e] == want {
			cl.addPath(covers, &m.pre.paths.Set[e])
			if cl.satisfied {
				break
			}
		}
	}
	rs.clauseByInit[c.q] = append(rs.clauseByInit[c.q], cl)
	return cl
}

// covers returns the candidate covers of component c's clauses, inside
// V \ S \ {v}, or for c = -1 Filter-and-Average's, inside V \ {v}: each
// list is enumerated on first use and shared by every clause of every run
// on the plan. Machines of the node on concurrent loops may both enumerate
// a list; the lists are equal and the first stored is the one kept.
func (m *Machine) covers(c int32) []graph.Set {
	slot := &m.pre.covers[c+1]
	if cs := slot.Load(); cs != nil {
		return *cs
	}
	allowed := m.plan.g.Nodes()
	if c >= 0 {
		allowed = m.plan.comps[c].outside
	}
	cs := candidateCovers(allowed.Remove(m.id), m.plan.f)
	slot.CompareAndSwap(nil, &cs)
	return *slot.Load()
}

// clauseSatisfied fans a newly satisfied clause out to its subscribers.
func clauseSatisfied(rs *roundState, cl *clause) {
	for _, s := range cl.subscribers {
		t := &rs.threads[s.thread]
		pc := &t.pending[s.pending]
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
		verified := false
		for i := range rs.threads {
			if rs.threads[i].verified() {
				verified = true
				break
			}
		}
		if !verified {
			return
		}
		rs.advanced = true
		m.x = m.filterAndAverage(rs)
		m.metrics.FAExecutions++
		m.metrics.History = append(m.metrics.History, m.x)
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
	order, sets := m.valueOrder(rs), m.pre.paths.Set
	lo := m.coverablePrefix(sets, order)
	slices.Reverse(order)
	hi := m.coverablePrefix(sets, order)
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

// valueOrder returns M_v's entries sorted by value, ties broken by path key:
// the entry's rank in the table stands in for comparing the strings. It is
// a stable counting sort. The round's distinct values are gathered per
// initial node — an honest one sent one — and sorted, each entry is
// bucketed by its value's rank among them, and one pass over the table in
// rank order places the accepted entries. The slice is the machine's
// scratch, good until the next call.
func (m *Machine) valueOrder(rs *roundState) []int32 {
	fa, tbl := &m.fa, m.pre.paths
	distinct := fa.distinct[:0]
	for _, es := range rs.byInit {
		for i, e := range es {
			if i == 0 || rs.vals[e] != rs.vals[es[i-1]] {
				distinct = append(distinct, rs.vals[e])
			}
		}
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct) // == merges ±0, as the comparison does
	fa.distinct = distinct

	if fa.bucket == nil {
		fa.bucket = make([]int32, len(tbl.Head))
	}
	next := scratch(&fa.next, len(distinct)+1)
	clear(next)
	for _, es := range rs.byInit {
		b := 0
		for i, e := range es {
			if i == 0 || rs.vals[e] != rs.vals[es[i-1]] {
				b, _ = slices.BinarySearch(distinct, rs.vals[e])
			}
			fa.bucket[e] = int32(b)
			next[b+1]++
		}
	}
	for b := range distinct {
		next[b+1] += next[b]
	}
	order := scratch(&fa.order, int(next[len(distinct)]))
	for _, e := range tbl.ByRank {
		if rs.has[e] {
			b := fa.bucket[e]
			order[next[b]] = e
			next[b]++
		}
	}
	return order
}

// scratch returns (*buf)[:n], replacing *buf when it is shorter.
func scratch(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// coverablePrefix returns the largest k such that the node sets of the
// first k entries of order admit an f-cover that excludes the local node
// (lines 2–3 of Algorithm 3). Covering only gets harder as paths are added,
// so k is where the incremental cover filter of a clause over V \ {v} first
// runs out of candidates.
func (m *Machine) coverablePrefix(sets []graph.Set, order []int32) int {
	var cl clause
	covers := m.covers(-1)
	for k, e := range order {
		cl.addPath(covers, &sets[e])
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

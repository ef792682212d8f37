package bw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// spell returns the path entry e of t names.
func spell(t *graph.PathTable, e int32) graph.Path {
	var p graph.Path
	for ; e >= 0; e = t.Next[e] {
		p = append(p, int(t.Head[e]))
	}
	return p
}

// entryOf returns the entry of t naming path, or -1 when path is none of
// its entries: a scan, independent of the doors it is a reference for.
func entryOf(t *graph.PathTable, path graph.Path) int32 {
	for e := range t.Head {
		if slices.Equal(spell(t, int32(e)), path) {
			return int32(e)
		}
	}
	return -1
}

// The per-delivery path predicates the path table replaced: before it,
// every delivery extended the received path by the local node, ran analyze
// over it and asked extendable per out-neighbor.

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

// TestAnalyzeRedundantMatchesDefinition cross-validates the O(1) relay
// extension test against the direct IsRedundant definition over random
// walks — the incremental prefix/suffix bound arithmetic is hand-derived,
// so it gets exhaustive scrutiny.
func TestAnalyzeRedundantMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// One shared scratch across all trials exercises the epoch tagging the
	// way a machine does: no clearing between deliveries. mark is sized for
	// the largest node ID the trials use, as NewMachine sizes it for the
	// graph order.
	ext := redundantExt{mark: make([]uint64, 6)}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(10)
		p := make(graph.Path, n)
		for i := range p {
			p[i] = rng.Intn(5)
		}
		ok := ext.analyze(p)
		if ok != p.IsRedundant() {
			t.Fatalf("analyze(%v) ok=%v, IsRedundant=%v", p, ok, p.IsRedundant())
		}
		if !ok {
			continue
		}
		for w := 0; w < 6; w++ {
			got := ext.extendable(w)
			want := p.Append(w).IsRedundant()
			if got != want {
				t.Fatalf("extendable(%v, %d) = %v, want %v", p, w, got, want)
			}
		}
	}
}

// comparatorFilterAndAverage is Filter-and-Average as it was written before
// the counting sort: M_v's entries in rank order, sorted by a comparator on
// (value, rank), then the longest f-coverable prefix and suffix trimmed and
// the midpoint of the remaining extremes returned. It returns the sorted
// order and the midpoint.
func comparatorFilterAndAverage(m *Machine, rs *roundState) ([]int32, float64) {
	tbl := m.pre.paths
	order := make([]int32, 0, len(tbl.ByRank))
	for _, e := range tbl.ByRank {
		if rs.has[e] {
			order = append(order, e)
		}
	}
	rank := tbl.Rank
	slices.SortFunc(order, func(a, b int32) int {
		if va, vb := rs.vals[a], rs.vals[b]; va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return int(rank[a] - rank[b])
	})
	sorted := slices.Clone(order)
	lo := m.coverablePrefix(tbl.Set, order)
	slices.Reverse(order)
	hi := m.coverablePrefix(tbl.Set, order)
	if lo+hi >= len(order) {
		return sorted, rs.x
	}
	return sorted, (rs.vals[order[len(order)-1-lo]] + rs.vals[order[hi]]) / 2
}

// Verify as it was kept before each content carried its own bookkeeping:
// a thread's snapshot was a list of pendingComplete records, one per
// member, each counting its open clauses, and a clause's subscribers were
// (thread, pending index) pairs, so a content shared by k snapshots was
// resolved k times and counted down k times. verifyOracle runs that logic
// beside a machine, on clauses of its own, and is checked after every
// delivery.

// pendingComplete tracks the Completeness(M_v, M_c, Fu) verification of one
// snapshotted COMPLETE message: the number of its clauses still open.
type pendingComplete struct {
	remaining  int
	impossible bool
}

// subscriber is a snapshotted COMPLETE: its thread, its pending index.
type subscriber struct {
	thread, pending int32
}

// oracleClause is a clause of the oracle's own with per-thread subscribers.
type oracleClause struct {
	cl   clause
	subs []subscriber
}

// oracleRound is the oracle's state for one round of the machine.
type oracleRound struct {
	byQ     [][]*oracleClause // the round's clauses per q
	fed     []int             // per initial node, the accepted entries fed to them
	pending [][]pendingComplete
	left    []int
	snapped []int // per thread, the check its snapshot was seen at; 0 before
	// qualified holds each content's qualified row at the last check.
	qualified []uint64
	own       int // contents of the round checked for the node's own floods
}

// VerifyCounts tallies what the oracle saw: snapshot members with a clause
// still open when the snapshot froze, members verified after their
// snapshot froze, impossible members, memberships
// frozen at a later delivery than another thread's snapshot of the round,
// and the node's own floods, each compared with newFloodInfo's summary.
type VerifyCounts struct {
	OpenAtSnapshot, Closed, Impossible, LateJoins, OwnFloods int
}

type verifyOracle struct {
	m      *Machine
	rounds []*oracleRound
	checks int
	counts VerifyCounts
}

// check advances the oracle over what the machine did since the last
// check and compares every thread's Verify state with it.
func (o *verifyOracle) check() error {
	o.checks++
	m := o.m
	tw := m.pre.threadWords
	own := 0
	for r, rs := range m.rounds {
		if rs == nil {
			continue
		}
		for len(o.rounds) <= r {
			o.rounds = append(o.rounds, nil)
		}
		or := o.rounds[r]
		if or == nil {
			or = &oracleRound{
				byQ:     make([][]*oracleClause, len(rs.byInit)),
				fed:     make([]int, len(rs.byInit)),
				pending: make([][]pendingComplete, len(rs.threads)),
				left:    make([]int, len(rs.threads)),
				snapped: make([]int, len(rs.threads)),
			}
			o.rounds[r] = or
		}
		// The entries accepted since the last check feed the clauses; the
		// filter ignores order, so feeding them before or after this
		// delivery's snapshots ends in the same state.
		for q, es := range rs.byInit {
			for _, e := range es[or.fed[q]:] {
				for _, oc := range or.byQ[q] {
					if oc.cl.satisfied || oc.cl.want != rs.vals[e] {
						continue
					}
					oc.cl.addPath(m.covers(oc.cl.comp), &m.pre.paths.Set[e])
					if oc.cl.satisfied {
						o.satisfied(or, oc)
					}
				}
			}
			or.fed[q] = len(es)
		}
		for ti := range rs.threads {
			if rs.threads[ti].snapshotDone && or.snapped[ti] == 0 {
				if err := o.snapshot(rs, or, int32(ti)); err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
			}
		}
		for ti := range rs.threads {
			t := &rs.threads[ti]
			want := t.fifoDone && or.snapped[ti] != 0 && or.left[ti] == 0
			if t.verified() != want || t.pendingLeft != or.left[ti] {
				return fmt.Errorf("round %d thread %s: verified %v with %d members pending, the oracle says %v with %d",
					r, t.pre.fv, t.verified(), t.pendingLeft, want, or.left[ti])
			}
		}
		for ; or.own < len(rs.contents); or.own++ {
			info := rs.contents[or.own]
			if info.key.origin != m.id {
				continue
			}
			p := CompletePayload{Round: r, Origin: m.id, Tag: info.tag, Entries: info.entries}
			if err := sameSummary(info, m.plan.newFloodInfo(&p, p.contentKey())); err != nil {
				return fmt.Errorf("round %d: own flood tagged %s: %w", r, info.tag, err)
			}
			o.counts.OwnFloods++
		}
		for _, info := range rs.contents {
			if info.key.origin == m.id {
				own++
			}
		}
		or.qualified = or.qualified[:0]
		for ci := range rs.contents {
			or.qualified = append(or.qualified, rs.qualified(int32(ci), tw)...)
		}
	}
	if own != m.metrics.MCFires {
		return fmt.Errorf("%d own floods interned, %d Maximal-Consistency fires", own, m.metrics.MCFires)
	}
	return nil
}

// snapshot builds thread ti's pending list from the members the machine
// froze, which must lie between the consistent contents qualified for the
// thread at the last check and those qualified now.
func (o *verifyOracle) snapshot(rs *roundState, or *oracleRound, ti int32) error {
	m := o.m
	tw, word, bit := m.pre.threadWords, int(ti>>6), uint64(1)<<(ti&63)
	late := false
	for tj, at := range or.snapped {
		late = late || (int32(tj) != ti && at != 0 && at < o.checks)
	}
	or.snapped[ti] = o.checks
	for ci, info := range rs.contents {
		member := rs.members(int32(ci), tw)[word]&bit != 0
		now := info.consistent && rs.qualified(int32(ci), tw)[word]&bit != 0
		before := info.consistent && (ci+1)*tw <= len(or.qualified) && or.qualified[ci*tw+word]&bit != 0
		if member && !now || before && !member {
			return fmt.Errorf("thread %s: content %d member %v, qualified before %v and now %v", rs.threads[ti].pre.fv, ci, member, before, now)
		}
		if !member {
			continue
		}
		pi := int32(len(or.pending[ti]))
		var pc pendingComplete
		if info.tagIdx >= 0 {
			for _, c := range m.plan.clauses[info.tagIdx] {
				want, ok := info.value(int(c.q))
				if !ok {
					pc.impossible = true
					break
				}
				oc := or.clause(m, rs, c, want)
				if !oc.cl.satisfied {
					pc.remaining++
					oc.subs = append(oc.subs, subscriber{thread: ti, pending: pi})
				}
			}
		}
		or.pending[ti] = append(or.pending[ti], pc)
		if pc.impossible || pc.remaining > 0 {
			or.left[ti]++
		}
		if pc.remaining > 0 {
			o.counts.OpenAtSnapshot++
		}
		if pc.impossible {
			o.counts.Impossible++
		}
		if late {
			o.counts.LateJoins++
		}
	}
	return nil
}

// clause returns the oracle's clause for (S, q, want), creating and
// pre-feeding it from the current M_v on first use.
func (or *oracleRound) clause(m *Machine, rs *roundState, c planClause, want float64) *oracleClause {
	for _, oc := range or.byQ[c.q] {
		if oc.cl.comp == c.comp && math.Float64bits(oc.cl.want) == math.Float64bits(want) {
			return oc
		}
	}
	oc := &oracleClause{cl: clause{comp: c.comp, want: want}}
	for _, e := range rs.byInit[c.q] {
		if rs.vals[e] == want {
			oc.cl.addPath(m.covers(c.comp), &m.pre.paths.Set[e])
		}
	}
	or.byQ[c.q] = append(or.byQ[c.q], oc)
	return oc
}

// satisfied fans a newly satisfied clause out to its subscribers.
func (o *verifyOracle) satisfied(or *oracleRound, oc *oracleClause) {
	for _, s := range oc.subs {
		pc := &or.pending[s.thread][s.pending]
		if pc.impossible {
			continue
		}
		pc.remaining--
		if pc.remaining == 0 {
			or.left[s.thread]--
			o.counts.Closed++
		}
	}
	oc.subs = nil
}

// sameSummary compares two summaries of one flood field by field, values
// bit for bit.
func sameSummary(got, want *floodInfo) error {
	if got.key != want.key || got.tag != want.tag || got.tagIdx != want.tagIdx ||
		got.consistent != want.consistent || got.finite != want.finite {
		return fmt.Errorf("summary key %v tag %s tagIdx %d consistent %v finite %v, newFloodInfo's %v %s %d %v %v",
			got.key, got.tag, got.tagIdx, got.consistent, got.finite, want.key, want.tag, want.tagIdx, want.consistent, want.finite)
	}
	if !slices.EqualFunc(got.values, want.values, func(a, b originValue) bool {
		return a.node == b.node && math.Float64bits(a.value) == math.Float64bits(b.value)
	}) {
		return fmt.Errorf("values %v, newFloodInfo's %v", got.values, want.values)
	}
	return nil
}

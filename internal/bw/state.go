package bw

import (
	"repro/internal/graph"
)

// clause is one conjunct of Algorithm 2: for source component S and node
// q ∈ S, node v must receive value want (= value_q(M_c)) over a path set
// with no f-cover inside allowed = V \ S \ {v}.
//
// Evaluation is incremental: viable indexes the maximal candidate covers
// (Machine.covers, enumerated once per node and component of the plan)
// that still intersect every matching path seen so far. Adding a path
// filters the list; the clause is satisfied exactly when at least one path arrived and no
// candidate survives (no cover can exist, since any cover extends to a
// maximal candidate). This turns the repeated hitting-set searches that
// dominated profiles into O(|viable|) filtering per message.
//
// Filter-and-Average's trimming asks the same question of a growing prefix
// of the sorted M_v and runs on the same type (coverablePrefix).
type clause struct {
	comp      int32 // index of S in the plan's source components
	want      float64
	started   bool
	satisfied bool
	viable    []int32
	// subscribers are the round's contents (indices into
	// roundState.contents) that impose this clause and were waiting on it
	// when their clause list was resolved: every snapshot of the round reads
	// one M_v, and every honest COMPLETE for one tag imposes the same
	// (S, q, want), so clause state is kept once per round and satisfaction
	// fans out to the contents, and through them to their threads.
	subscribers []int32
}

// candidateCovers lists the maximal candidate f-covers inside allowed: its
// subsets of size min(f, |allowed|). With f == 0 or an empty allowed set
// the only candidate, the empty set, covers nothing: the list is empty.
func candidateCovers(allowed graph.Set, f int) []graph.Set {
	var covers []graph.Set
	if size := min(f, allowed.Count()); size > 0 {
		graph.SubsetsOfSize(allowed, size, func(c graph.Set) bool {
			covers = append(covers, c)
			return true
		})
	}
	return covers
}

// addPath feeds the node set of one matching propagation path into the
// clause; covers is the candidate list of the clause's component.
func (cl *clause) addPath(covers []graph.Set, p *graph.Set) {
	if cl.satisfied {
		return
	}
	if !cl.started {
		cl.started = true
		for i := range covers {
			if intersects(&covers[i], p, len(p)) {
				cl.viable = append(cl.viable, int32(i))
			}
		}
	} else {
		kept := cl.viable[:0]
		for _, i := range cl.viable {
			if intersects(&covers[i], p, len(p)) {
				kept = append(kept, i)
			}
		}
		cl.viable = kept
	}
	cl.satisfied = len(cl.viable) == 0
}

// contentCheck is Verify's bookkeeping for one content of the round
// (Definition 11's "informed" requirement, Completeness(M_v, M_c, Fu)):
// whether and how its COMPLETE is verified does not depend on which thread's
// snapshot holds it, so the clause list is resolved once, at the content's
// first snapshot membership, and shared by every snapshot it joins.
type contentCheck struct {
	resolved   bool
	impossible bool  // M_c lacks a value for some q ∈ S_{Fu,Fw}; never satisfiable
	open       int32 // the content's clauses not satisfied yet
}

// originState is what one thread tracks about one member c of its reach
// set, as the initial node of accepted VAL paths and as the origin of
// COMPLETE floods.
type originState struct {
	// Maximal-Consistency (line 10): the value every path from c that
	// avoids F_v has carried so far.
	val  float64
	seen bool
	// FIFO-Receive-All (line 12): satisfied once some content tagged F_v
	// has been FIFO-received from c over every required path.
	satisfied bool
	progress  []fifoProgress
}

// fifoProgress is one content's coverage of an origin's required paths: a
// bitset over the plan's path numbers, so a content re-sent under another
// sequence number on the same path counts once. The bitset's words start
// at the round's fifoBits[at].
type fifoProgress struct {
	content int32
	count   uint32
	at      int32
}

// threadState is the dynamic state of the parallel execution for one
// candidate fault set F_v (Algorithm 1 lines 5–18). Its per-origin tables
// are laid out over the members of reach_v(F_v) in ascending order.
type threadState struct {
	pre *threadPre

	// Maximal-Consistency condition (line 10).
	mcFired      bool
	inconsistent bool
	missing      int

	// FIFO-Receive-All condition (line 12).
	fifoDone bool
	satCount int
	origins  []originState

	// Verify (lines 14, 20–26): the snapshot frozen when FIFO-Receive-All
	// fired is the round's member bitsets' bit for this thread, and
	// pendingLeft counts its members that are impossible or still have an
	// open clause.
	snapshotDone bool
	pendingLeft  int
}

// verified reports whether this parallel execution may proceed to
// Filter-and-Average.
func (t *threadState) verified() bool {
	return t.fifoDone && t.snapshotDone && t.pendingLeft == 0
}

// fifoStream reorders COMPLETE messages per (origin, propagation path) so
// that a message with sequence number k is processed only after sequence
// numbers 1..k-1 arrived through the same path (Appendix F's FIFO-Receive).
// done counts the messages processed in order and high is the largest
// sequence number parked; the stream's slots of the round's park slab hold
// message k at k-1 until its turn. The receiver caps k at the plan's
// seqCap, which is the slab's width per stream.
type fifoStream struct {
	done, high int
}

// roundState holds everything node v tracks for one asynchronous round r:
// the shared message history M_v, the per-candidate-fault-set thread states,
// the FIFO streams and the COMPLETE content registry.
type roundState struct {
	round   int
	started bool
	x       float64 // x_v[r], the state value flooded this round

	// M_v is a partial map from the node's path table to values: has marks
	// the entries a message was accepted on (first message per path wins,
	// Algorithm 4 line 3) and vals holds what it carried. It only grows, as
	// the paper's shared M_v does, which is what makes the
	// Maximal-Consistency "first time" latch and the monotone Completeness
	// condition sound. byInit lists the accepted entries per initial node.
	vals   []float64
	has    []bool
	byInit [][]int32

	threads []threadState
	// clauseByInit lists per q the Completeness clauses the threads'
	// snapshots imposed, one per (S, q, want); nil before the first.
	clauseByInit [][]*clause

	// streams holds one FIFO stream per simple path ending here, by the
	// table's stream number; parked holds their park slots, streams ×
	// seqCap of them, allocated on the round's first park.
	streams []fifoStream
	parked  []*floodInfo
	// contents interns each distinct COMPLETE content FIFO-received this
	// round, in arrival order; contentIdx finds one by content key, and
	// checks[ci] is content ci's Verify bookkeeping. threadBits holds two
	// bitsets over threads per content, each threadWords words: in
	// qualified(ci), bit i is set once content ci was FIFO-received through
	// a stream threads[i] requires, which makes it a member of a snapshot
	// that thread freezes later (Verify); in members(ci), bit i is set once
	// threads[i] froze its snapshot with ci in it.
	contents   []*floodInfo
	contentIdx map[contentKey]int32
	checks     []contentCheck
	threadBits []uint64
	// lookups counts the round's clause resolutions (sharedClause calls),
	// one per clause of a content's list when it is first resolved.
	lookups int
	// fifoBits holds every fifoProgress bitset of the round's threads.
	fifoBits []uint64

	outSeq   int  // FIFO counter for this node's own floods in this round
	advanced bool // the nextround latch (lines 16-18)
}

// newRoundState sizes the round's tables from the plan: M_v and the streams
// for the node's path table — no round can accept a path outside it — and
// each thread's origin table for its reach set.
func newRoundState(r, n int, pre *nodePre) *roundState {
	rs := &roundState{
		round:      r,
		vals:       make([]float64, len(pre.paths.Head)),
		has:        make([]bool, len(pre.paths.Head)),
		byInit:     make([][]int32, n),
		streams:    make([]fifoStream, len(pre.paths.Simples)),
		contentIdx: make(map[contentKey]int32),
		threads:    make([]threadState, len(pre.threads)),
	}
	entries := make([]int32, len(pre.paths.Head))
	for c := range rs.byInit {
		lo, hi := pre.initOff[c], pre.initOff[c+1]
		rs.byInit[c] = entries[lo:lo:hi]
	}
	for i, tp := range pre.threads {
		rs.threads[i] = threadState{
			pre:     tp,
			missing: tp.expectedCount,
			origins: make([]originState, len(tp.need)),
		}
	}
	return rs
}

// qualified and members return content ci's two rows of threadBits.
func (rs *roundState) qualified(ci int32, tw int) []uint64 {
	return rs.threadBits[2*int(ci)*tw : (2*int(ci)+1)*tw]
}

func (rs *roundState) members(ci int32, tw int) []uint64 {
	return rs.threadBits[(2*int(ci)+1)*tw : (2*int(ci)+2)*tw]
}

// parkSlots returns stream s's seqCap park slots, allocating the round's
// slab on its first park.
func (rs *roundState) parkSlots(s int32, seqCap int) []*floodInfo {
	if rs.parked == nil {
		rs.parked = make([]*floodInfo, len(rs.streams)*seqCap)
	}
	return rs.parked[int(s)*seqCap : (int(s)+1)*seqCap]
}

package bw

import (
	"repro/internal/graph"
)

// clause is one conjunct of Algorithm 2: for source component S and node
// q ∈ S, node v must receive value want (= value_q(M_c)) over a path set
// with no f-cover inside allowed = V \ S \ {v}.
//
// Evaluation is incremental: viable holds the maximal candidate covers
// (size min(f, |allowed|) subsets of allowed) that still intersect every
// matching path seen so far. Adding a path filters the list; the clause is
// satisfied exactly when at least one path arrived and no candidate
// survives (no cover can exist, since any cover extends to a maximal
// candidate). This turns the repeated hitting-set searches that dominated
// profiles into O(|viable|) filtering per message.
//
// Filter-and-Average's trimming asks the same question of a growing prefix
// of the sorted M_v and runs on the same type (coverablePrefix).
type clause struct {
	comp      int32 // index of S in the plan's source components
	want      float64
	allowed   graph.Set
	f         int
	started   bool
	viable    []graph.Set
	satisfied bool
	// subscribers are the pending COMPLETEs sharing this clause, by index
	// in the thread's pending list: distinct message sets frequently impose
	// identical (S, q, want) obligations (every honest COMPLETE for the
	// same tag does), so clause state is deduplicated per thread and
	// satisfaction fans out to subscribers.
	subscribers []int32
}

// addPath feeds the node set of one matching propagation path into the
// clause.
func (cl *clause) addPath(p *graph.Set) {
	if cl.satisfied {
		return
	}
	if !cl.started {
		cl.started = true
		size := cl.f
		if c := cl.allowed.Count(); c < size {
			size = c
		}
		// With f == 0 or an empty allowed set the only candidate is the
		// empty set, which covers nothing: viable stays empty and the
		// clause is satisfied by the first path.
		if size > 0 {
			graph.SubsetsOfSize(cl.allowed, size, func(c graph.Set) bool {
				if intersects(&c, p, len(p)) {
					cl.viable = append(cl.viable, c)
				}
				return true
			})
		}
	} else {
		kept := cl.viable[:0]
		for i := range cl.viable {
			if intersects(&cl.viable[i], p, len(p)) {
				kept = append(kept, cl.viable[i])
			}
		}
		cl.viable = kept
	}
	cl.satisfied = len(cl.viable) == 0
}

// pendingComplete tracks the Completeness(M_v, M_c, Fu) verification of one
// snapshotted COMPLETE message (Definition 11's "informed" requirement):
// the number of its clauses still open.
type pendingComplete struct {
	remaining  int
	impossible bool // M_c lacks a value for some q ∈ S_{Fu,Fw}; never satisfiable
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
// sequence number on the same path counts once.
type fifoProgress struct {
	content int32
	count   uint32
	got     []uint64
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

	// Verify (lines 14, 20–26): the COMPLETE messages snapshotted when
	// FIFO-Receive-All fired, and their outstanding clauses (deduplicated
	// by (S, q, want) across the snapshot), listed per q by node id.
	snapshotDone bool
	pending      []pendingComplete
	pendingLeft  int
	clauseByInit [][]*clause
}

// verified reports whether this parallel execution may proceed to
// Filter-and-Average.
func (t *threadState) verified() bool {
	return t.fifoDone && t.snapshotDone && t.pendingLeft == 0
}

// fifoStream reorders COMPLETE messages per (origin, propagation path) so
// that a message with sequence number k is processed only after sequence
// numbers 1..k-1 arrived through the same path (Appendix F's FIFO-Receive).
// buf[k-1] parks message k until then; the receiver caps k at the plan's
// seqCap, so buf never grows past it.
type fifoStream struct {
	digest pathDigest // of the storage path: wire path extended with the local node
	set    graph.Set  // the storage path's nodes
	next   int
	buf    []*floodInfo
}

// contentRecord is the per-receiver state of one distinct COMPLETE content:
// the shared flood summary plus the streams it has been FIFO-received
// through so far at this node.
type contentRecord struct {
	info *floodInfo
	via  []*fifoStream
}

// keyOrder keeps M_v's entry indices in path-key order without sorting:
// an accepted entry is binary-inserted into a short tail, and the tail is
// merged into the main run when it fills or when a reader wants the whole
// order. Every COMPLETE a round floods and its Filter-and-Average tie-break
// read this one index.
type keyOrder struct {
	run  []int32
	tail []int32
}

// keyOrderTail bounds the tail: an insert moves at most this many indices,
// and a merge moves the run once per this many inserts.
const keyOrderTail = 64

// searchKeys returns where key belongs among idx, entries in key order all
// distinct from it.
func searchKeys(idx []int32, keys []string, key string) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[idx[mid]] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (o *keyOrder) insert(keys []string, e int32) {
	pos := searchKeys(o.tail, keys, keys[e])
	o.tail = append(o.tail, 0)
	copy(o.tail[pos+1:], o.tail[pos:])
	o.tail[pos] = e
	if len(o.tail) == keyOrderTail {
		o.merge(keys)
	}
}

// merge folds the tail into the run in place, back to front: each tail
// element shifts the block of run elements above it by the number of tail
// elements at or below it.
func (o *keyOrder) merge(keys []string) {
	end := len(o.run)
	o.run = append(o.run, o.tail...)
	for j := len(o.tail) - 1; j >= 0; j-- {
		pos := searchKeys(o.run[:end], keys, keys[o.tail[j]])
		copy(o.run[pos+j+1:], o.run[pos:end])
		o.run[pos+j] = o.tail[j]
		end = pos
	}
	o.tail = o.tail[:0]
}

// sorted returns every inserted index in key order.
func (o *keyOrder) sorted(keys []string) []int32 {
	if len(o.tail) > 0 {
		o.merge(keys)
	}
	return o.run
}

// roundState holds everything node v tracks for one asynchronous round r:
// the shared message history M_v, the per-candidate-fault-set thread states,
// the FIFO streams and the COMPLETE content registry.
type roundState struct {
	round   int
	started bool
	x       float64 // x_v[r], the state value flooded this round

	// M_v is an append-only arena, one column per attribute of an accepted
	// (value, path) message; everything else refers to an entry by index.
	// Append-only because the paper's shared M_v only grows, which is what
	// makes the Maximal-Consistency "first time" latch and the monotone
	// Completeness condition sound. The path survives as its key string
	// alone: that is the form COMPLETE entries carry on the wire.
	vals []float64
	keys []string
	sets []graph.Set
	// byPath holds the digest of every stored path (first message per path
	// wins); byInit lists entry indices per initial node; order is the
	// path-key order.
	byPath map[pathDigest]struct{}
	byInit [][]int32
	order  keyOrder

	threads []threadState

	streams map[pathDigest]*fifoStream
	// contents interns each distinct COMPLETE content FIFO-received this
	// round, in arrival order; contentIdx finds one by content key.
	contents   []contentRecord
	contentIdx map[contentKey]int32

	outSeq   int  // FIFO counter for this node's own floods in this round
	advanced bool // the nextround latch (lines 16-18)
}

// newRoundState sizes the round's tables from the plan: M_v for the
// ∅-thread's fullness set (every redundant path of G ending here — no
// round can accept more), each thread's origin table for its reach set.
func newRoundState(r, n int, pre *nodePre) *roundState {
	full := pre.threads[0].expectedCount
	rs := &roundState{
		round:      r,
		vals:       make([]float64, 0, full),
		keys:       make([]string, 0, full),
		sets:       make([]graph.Set, 0, full),
		byPath:     make(map[pathDigest]struct{}, full),
		byInit:     make([][]int32, n),
		streams:    make(map[pathDigest]*fifoStream),
		contentIdx: make(map[contentKey]int32),
		threads:    make([]threadState, len(pre.threads)),
	}
	rs.order.run = make([]int32, 0, full)
	rs.order.tail = make([]int32, 0, keyOrderTail)
	for i, tp := range pre.threads {
		rs.threads[i] = threadState{
			pre:     tp,
			missing: tp.expectedCount,
			origins: make([]originState, len(tp.need)),
		}
	}
	return rs
}

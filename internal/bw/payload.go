// Package bw implements the paper's main contribution: the Byzantine
// Witness (BW) algorithm for asynchronous approximate Byzantine consensus in
// directed networks satisfying the 3-reach condition (Algorithm 1), together
// with its Completeness verification (Algorithm 2), the Filter-and-Average
// value update (Algorithm 3), the RedundantFlood propagation of state values
// (Algorithm 4, Appendix E) and the FIFO-Flood/FIFO-Receive layer
// (Appendix F).
//
// Fidelity notes relative to the paper's pseudocode are catalogued in
// DESIGN.md; the two substantive ones are the midpoint correction in
// Filter-and-Average (the paper's line 5 typo) and the exclusion of the
// local node from hypothesized f-covers (required by Lemma 8's Equation 1).
package bw

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/transport"
)

// ValPayload is a RedundantFlood message (x, p): a round-r state value
// propagated along a redundant path. The path ends at the sender, which
// names it by its entry in its own path table; the receiver maps that to
// its entry for the path extended by itself before storing or relaying, and
// drops a message whose entry maps to none (Appendix E's ter(p) = u check
// and redundancy at the receiver, in one lookup).
type ValPayload struct {
	Round int
	Value float64
	Entry int32
}

// Kind implements transport.Payload.
func (ValPayload) Kind() string { return "VAL" }

// Carried implements transport.Valued: the sender's own value travels on
// its trivial path, entry 0; every other entry is a relay.
func (p ValPayload) Carried() (float64, bool, bool) { return p.Value, p.Entry == 0, true }

// WithCarried implements transport.Valued.
func (p ValPayload) WithCarried(x float64) transport.Payload { p.Value = x; return p }

// ValEntry is one (value, path) pair of a flooded message set M_c, the path
// named by its entry in the origin's path table. Entries are sorted by path
// key — the table's rank order — so that equal message sets serialize
// identically.
type ValEntry struct {
	Value float64
	Entry int32
}

// CompletePayload is a FIFO-flooded (M_c, COMPLETE(F)) message: the message
// set M_c that satisfied the Maximal-Consistency condition at Origin for the
// suspect set Tag, together with Origin's per-round FIFO sequence number.
// Entry names the propagation path, ending at the sender, in the sender's
// table, as ValPayload does. Entries is immutable and shared between
// relayed copies.
type CompletePayload struct {
	Round   int
	Origin  int
	Seq     int
	Tag     graph.Set
	Entries []ValEntry
	Entry   int32
}

// Kind implements transport.Payload.
func (CompletePayload) Kind() string { return "COMPLETE" }

// contentKey identifies the content of a COMPLETE message (origin, tag and
// entry set — not the propagation path or sequence number), so that "the
// same message received from all paths" (the FIFO-Receive-All condition,
// Algorithm 1 line 12) is a key comparison. The digest is two 64-bit
// multiply-xorshift lanes over fixed-width words — the tag's, then two per
// entry (id, value bits) — so no entry's words can spell two entries: entry
// sets can hold thousands of entries and arrive over many paths, so full
// canonical comparison per receipt dominated profiles; a collision would
// require two distinct Byzantine message sets hashing identically in both
// lanes, which is negligible at simulation scale. The digest is unkeyed,
// so the shared flood cache does not trust it alone: a cache hit is
// reused only once its entries compare equal (Machine.floodInfo).
type contentKey struct {
	origin int
	h1, h2 uint64
}

func (c *CompletePayload) contentKey() contentKey {
	const (
		prime1 = 0x9e3779b97f4a7c15
		prime2 = 0xc2b2ae3d27d4eb4f
	)
	h1 := uint64(0x243f6a8885a308d3) ^ uint64(c.Origin)
	h2 := uint64(0x13198a2e03707344) ^ uint64(c.Origin)
	mix := func(w uint64) {
		h1 = (h1 ^ w) * prime1
		h1 ^= h1 >> 29
		h2 = (h2 ^ w) * prime2
		h2 ^= h2 >> 32
	}
	for _, w := range c.Tag {
		mix(w)
	}
	for _, e := range c.Entries {
		mix(uint64(uint32(e.Entry)))
		mix(math.Float64bits(e.Value))
	}
	return contentKey{origin: c.Origin, h1: h1, h2: h2}
}

// floodInfo is the receiver-independent summary of one distinct COMPLETE
// flood: its content key, its tag as a fault-set index, and its per-origin
// values with the Definition 8 consistency flag. It is computed once per
// flood and shared by every receiver through the Proto's flood cache —
// both the content hash and the value scan cost O(|entries|), which per
// receiver added up to the dominant term of large-graph profiles.
type floodInfo struct {
	key        contentKey
	tag        graph.Set
	tagIdx     int32 // index of tag in the plan's faultSets; -1 when it is not a fault set
	consistent bool
	// finite is false when some entry carries a NaN or infinite value,
	// which no honest origin floods: receivers drop the message.
	finite bool
	values []originValue // init node -> unique value (Definition 8), ascending by node
	// entries is the summarized flood's (immutable) entry slice, which
	// holds compares a cache hit against.
	entries []ValEntry
}

// holds reports whether c carries exactly the summarized flood's tag and
// entries, values compared bit for bit as contentKey hashes them. The
// origin is part of the cache key.
func (info *floodInfo) holds(c *CompletePayload) bool {
	return info.tag == c.Tag && slices.EqualFunc(info.entries, c.Entries, func(a, b ValEntry) bool {
		return a.Entry == b.Entry && math.Float64bits(a.Value) == math.Float64bits(b.Value)
	})
}

type originValue struct {
	node  int
	value float64
}

// canonical returns x with a zero made +0. Every reader of a summary's
// values compares them with ==, which does not tell -0 from +0, so a
// summary holds one of them: the same whichever of an origin's equal
// values, in whatever order, it was built from.
func canonical(x float64) float64 {
	if x == 0 {
		return 0
	}
	return x
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// newFloodInfo summarizes c, whose contentKey is key.
func (pl *plan) newFloodInfo(c *CompletePayload, key contentKey) *floodInfo {
	info := &floodInfo{
		key:        key,
		tag:        c.Tag,
		tagIdx:     pl.tagIndex(&c.Tag),
		consistent: true,
		finite:     true,
		entries:    c.Entries,
	}
	// An entry's initial node is the head of the path it names in the
	// origin's table; an id that names none makes the set inconsistent.
	var head []int32
	if uint(c.Origin) < uint(pl.g.N()) {
		if t, err := pl.paths.Table(c.Origin); err == nil {
			head = t.Head
		}
	}
	// Entries arrive in rank order, so an honest flood's origins are
	// already ascending with each one's entries adjacent; only a Byzantine
	// flood takes the sort and the second folding pass.
	ordered := true
	for _, e := range c.Entries {
		info.finite = info.finite && finite(e.Value)
		if uint(e.Entry) >= uint(len(head)) {
			info.consistent = false
			continue
		}
		init := int(head[e.Entry])
		if n := len(info.values); n > 0 && info.values[n-1].node > init {
			ordered = false
		}
		info.add(originValue{node: init, value: e.Value})
	}
	if !ordered {
		vals := info.values
		slices.SortStableFunc(vals, func(a, b originValue) int { return a.node - b.node })
		info.values = vals[:0]
		for _, ov := range vals {
			info.add(ov)
		}
	}
	return info
}

// add folds the next entry into values: one slot per origin holding its
// value, the set inconsistent as soon as two consecutive values of one
// origin differ (Definition 8).
func (info *floodInfo) add(ov originValue) {
	ov.value = canonical(ov.value)
	if n := len(info.values); n > 0 && info.values[n-1].node == ov.node {
		if info.values[n-1].value != ov.value {
			info.consistent = false
		}
		info.values[n-1].value = ov.value
		return
	}
	info.values = append(info.values, ov)
}

// value returns value_q of the flood's message set.
func (info *floodInfo) value(q int) (float64, bool) {
	lo, hi := 0, len(info.values)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if info.values[mid].node < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(info.values) && info.values[lo].node == q {
		return info.values[lo].value, true
	}
	return 0, false
}

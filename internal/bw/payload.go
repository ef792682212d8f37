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
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/graph"
)

// ValPayload is a RedundantFlood message (x, p): a round-r state value
// propagated along a redundant path. Path ends at the sender; the receiver
// appends itself before storing or relaying, and rejects messages whose
// claimed path does not terminate at the actual sender (Appendix E's
// ter(p) = u check).
type ValPayload struct {
	Round int
	Value float64
	Path  graph.Path
}

// Kind implements transport.Payload.
func (ValPayload) Kind() string { return "VAL" }

// ValEntry is one (value, path) pair of a flooded message set M_c. Entries
// are sorted by path key so that equal message sets serialize identically.
type ValEntry struct {
	Value   float64
	PathKey string
}

// CompletePayload is a FIFO-flooded (M_c, COMPLETE(F)) message: the message
// set M_c that satisfied the Maximal-Consistency condition at Origin for the
// suspect set Tag, together with Origin's per-round FIFO sequence number.
// Entries is immutable and shared between relayed copies.
type CompletePayload struct {
	Round   int
	Origin  int
	Seq     int
	Tag     graph.Set
	Entries []ValEntry
	Path    graph.Path
}

// Kind implements transport.Payload.
func (CompletePayload) Kind() string { return "COMPLETE" }

// contentKey identifies the content of a COMPLETE message (origin, tag and
// entry set — not the propagation path or sequence number), so that "the
// same message received from all paths" (the FIFO-Receive-All condition,
// Algorithm 1 line 12) is a key comparison. The digest is a 128-bit FNV-1a
// pair: entry sets can hold thousands of path entries and arrive over many
// paths, so full canonical serialization per receipt dominated profiles;
// a collision would require two distinct Byzantine message sets hashing
// identically under both variants, which is negligible at simulation scale.
type contentKey struct {
	origin int
	h1, h2 uint64
}

func (c *CompletePayload) contentKey() contentKey {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h1 := uint64(offset64)
	h2 := uint64(offset64 ^ 0x9e3779b97f4a7c15)
	mix := func(b byte) {
		h1 = (h1 ^ uint64(b)) * prime64
		h2 = (h2 ^ uint64(b^0xa5)) * prime64
	}
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	mix64(uint64(c.Origin))
	for _, w := range c.Tag {
		mix64(w)
	}
	// Keys are length-prefixed, not separated: a decoded key is any byte
	// string, and one spelling a separator, value and key is not two entries.
	var size [binary.MaxVarintLen64]byte
	for _, e := range c.Entries {
		for _, b := range binary.AppendUvarint(size[:0], uint64(len(e.PathKey))) {
			mix(b)
		}
		for i := 0; i < len(e.PathKey); i++ {
			mix(e.PathKey[i])
		}
		mix64(math.Float64bits(e.Value))
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
	tagIdx     int32 // index of tag in Proto.FaultSets; -1 when it is not a fault set
	consistent bool
	values     []originValue // init node -> unique value (Definition 8), ascending by node
}

type originValue struct {
	node  int
	value float64
}

func (p *Proto) newFloodInfo(c *CompletePayload) *floodInfo {
	info := &floodInfo{
		key:        c.contentKey(),
		tag:        c.Tag,
		tagIdx:     p.tagIndex(&c.Tag),
		consistent: true,
	}
	// Entries arrive sorted by path key, so an honest flood's origins are
	// already ascending with each one's entries adjacent; only a Byzantine
	// flood takes the sort and the second folding pass.
	ordered := true
	for _, e := range c.Entries {
		init := graph.KeyInit(e.PathKey)
		if init < 0 {
			info.consistent = false
			continue
		}
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
// latest value, the set inconsistent as soon as two consecutive values of
// one origin differ (Definition 8).
func (info *floodInfo) add(ov originValue) {
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

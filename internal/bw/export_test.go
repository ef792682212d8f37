package bw

import (
	"hash/fnv"
	"math"

	"repro/internal/graph"
)

// RoundClauses counts the Completeness clauses m's rounds hold and, round
// by round, the distinct (S, q, want) obligations among them.
func RoundClauses(m *Machine) (clauses, obligations int) {
	type obligation struct {
		comp, q int32
		want    uint64
	}
	for _, rs := range m.rounds {
		if rs == nil {
			continue
		}
		distinct := make(map[obligation]bool)
		for q, list := range rs.clauseByInit {
			for _, cl := range list {
				clauses++
				distinct[obligation{cl.comp, int32(q), math.Float64bits(cl.want)}] = true
			}
		}
		obligations += len(distinct)
	}
	return clauses, obligations
}

// PathTableChecksum hashes the columns that say which path an entry names
// (head, next) and where it leads (kids, ext) in every path table p has
// built so far, node by node, and of every in-edge column into those nodes,
// building the columns not built yet.
func PathTableChecksum(p *Proto) uint64 {
	h := fnv.New64a()
	word := func(xs []int32) {
		for _, x := range xs {
			h.Write([]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
		}
		h.Write([]byte{0xff})
	}
	for v := range p.getPlan().nodes {
		pre, err := p.nodePre(v)
		if err != nil {
			continue
		}
		word(pre.paths.head)
		word(pre.paths.next)
		word(pre.paths.kids)
		word(pre.paths.ext)
		for j := range pre.in {
			word(p.column(pre, v, int32(j)))
		}
	}
	return h.Sum64()
}

// EntryOf returns the entry of path's last vertex's table naming path, or
// -1 when path is no redundant path of the graph.
func EntryOf(p *Proto, path graph.Path) int32 {
	if len(path) == 0 || path[len(path)-1] < 0 || path[len(path)-1] >= p.G.N() {
		return -1
	}
	t, err := p.table(path[len(path)-1])
	if err != nil {
		return -1
	}
	return t.entryOf(p.G, path)
}

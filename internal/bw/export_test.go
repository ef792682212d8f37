package bw

import (
	"hash/fnv"
	"math"
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

// PathTableChecksum hashes every spelled-out path and key of the path
// tables p has built so far, node by node and entry by entry.
func PathTableChecksum(p *Proto) uint64 {
	h := fnv.New64a()
	for v := range p.getPlan().nodes {
		pre, err := p.nodePre(v)
		if err != nil {
			continue
		}
		for e, path := range pre.paths.path {
			for _, x := range path {
				h.Write([]byte{byte(x >> 8), byte(x)})
			}
			h.Write([]byte{0xff})
			h.Write([]byte(pre.paths.key[e]))
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64()
}

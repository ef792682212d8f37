package bw

import "hash/fnv"

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

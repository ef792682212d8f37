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

// NewMachineUncached is NewMachine on a fresh Proto whose plan and path
// tables are built for it alone, bypassing the shared ones: what a node's
// set-up costs the first time its (G, f) is seen.
func NewMachineUncached(p *Proto, id int, input float64) (*Machine, error) {
	p.planOnce.Do(func() { p.plan = buildPlan(graph.NewPathTables(p.G, false, p.PathBudget), p.F) })
	return NewMachine(p, id, input)
}

// PlanOf and TableOf return the plan and the path table m runs on, for
// identity checks.
func PlanOf(m *Machine) any               { return m.plan }
func TableOf(m *Machine) *graph.PathTable { return m.pre.paths }

// table returns node v's path table.
func (p *Proto) table(v int) (*graph.PathTable, error) { return p.getPlan().paths.Table(v) }

// PathTableChecksum hashes, node by node, the columns of every path table p
// has built so far that say which path an entry names (Head, Next) and
// where it leads (Ext), and every in-edge door into those nodes, building
// the doors not built yet.
func PathTableChecksum(p *Proto) uint64 {
	h := fnv.New64a()
	word := func(xs []int32) {
		for _, x := range xs {
			h.Write([]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
		}
		h.Write([]byte{0xff})
	}
	pl := p.getPlan()
	for v := range pl.nodes {
		pre, err := pl.nodePre(v)
		if err != nil {
			continue
		}
		tbl := pre.paths
		word(tbl.Head)
		word(tbl.Next)
		for e := range tbl.Head {
			word(tbl.Ext(int32(e)))
		}
		for _, u := range p.G.In(v) {
			src, err := p.table(u)
			if err != nil {
				continue
			}
			door := make([]int32, len(src.Head))
			for e := range door {
				door[e] = tbl.Door(u, int32(e))
			}
			word(door)
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
	return entryOf(t, path)
}

// FloodCache counts the entries of p's flood cache: one per distinct
// flood, keyed by content, and the identity aliases that point at them.
func FloodCache(p *Proto) (entries, aliases int) {
	p.floods.Range(func(any, any) bool { entries++; return true })
	p.aliases.Range(func(any, any) bool { aliases++; return true })
	return entries, aliases
}

// VerifyCheck runs the subscriber oracle of reference_test.go beside a
// machine; Check is called after the machine's Start and every delivery.
type VerifyCheck struct{ o verifyOracle }

func NewVerifyCheck(m *Machine) *VerifyCheck { return &VerifyCheck{verifyOracle{m: m}} }

func (c *VerifyCheck) Check() error         { return c.o.check() }
func (c *VerifyCheck) Counts() VerifyCounts { return c.o.counts }

// ClauseLookups returns how many clause resolutions m's rounds made, and
// how many resolving each round's resolved contents once takes: the length
// of each one's clause list, up to its first missing value.
func ClauseLookups(m *Machine) (made, once int) {
	for _, rs := range m.rounds {
		if rs == nil {
			continue
		}
		made += rs.lookups
		for ci, c := range rs.checks {
			if !c.resolved || rs.contents[ci].tagIdx < 0 {
				continue
			}
			for _, pc := range m.plan.clauses[rs.contents[ci].tagIdx] {
				if _, ok := rs.contents[ci].value(int(pc.q)); !ok {
					break
				}
				once++
			}
		}
	}
	return made, once
}

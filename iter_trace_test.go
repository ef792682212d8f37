// Trace fence for the iterative baseline: the literals below were recorded
// at commit 8cd3ff5, before internal/iterative's round state moved from
// map[int]map[int]float64 to a dense (round, in-neighbour position) block.
// They pin the delivery schedule, every honest output and every History
// entry, so any change to when a node advances a round, what it trims or
// the order it sums in shows up here as a diff against a known-good run.
// The equivocate and extreme rows were re-recorded once those kinds
// forged iterative's values; the honest and silent rows are the 8cd3ff5
// literals. Two forged rows read as
// before: expander:32:4:1 seed 2 under random, where the faulty vertex
// holds the largest input, 4.0, and in every round each out-neighbour
// either trims its value as the largest or does not wait for it, so the
// forgeries, which only raise it there, change nothing (noise, which may
// lower it, does change that cell's outputs).
package repro_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"repro"
)

// iterTraceCell is one recorded run: f=1, K=4, eps=0.1 (six rounds), inputs
// (37·i mod 41)/10, the fault — if any — run by the highest-numbered vertex.
type iterTraceCell struct {
	graph  string
	seed   int64
	policy string
	fault  string // "" is the honest cell
}

func (c iterTraceCell) String() string {
	return fmt.Sprintf("%s seed %d policy %s fault %q", c.graph, c.seed, c.policy, c.fault)
}

// iterTraceFingerprint condenses everything the schedule determines into
// one line: delivery and send counts, sends by kind, whether every honest
// node decided, and FNV-64a hashes of the full delivery trace, of every
// honest output's bit pattern and of every Histories entry's bit pattern
// (both in vertex order).
func iterTraceFingerprint(t *testing.T, c iterTraceCell) string {
	t.Helper()
	g, err := repro.NamedGraph(c.graph)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = float64(37*i%41) / 10
	}
	s := repro.Scenario{
		Graph: c.graph, Protocol: "iterative", Inputs: inputs,
		F: 1, K: 4, Eps: 0.1, Seed: c.seed, RecordTrace: true,
		Policy: &repro.PolicySpec{Name: c.policy},
	}
	if c.policy == "bounded" {
		s.Policy.Params = map[string]float64{"bound": 4}
	}
	if c.fault != "" {
		s.Faults = []repro.FaultSpec{{Node: g.N() - 1, Kind: c.fault}}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	kinds := make([]string, 0, len(res.ByKind))
	for k, n := range res.ByKind {
		kinds = append(kinds, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(kinds)
	ids := make([]int, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	outs, hist := fnv.New64a(), fnv.New64a()
	var word [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		binary.BigEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, id := range ids {
		put(outs, uint64(id))
		put(outs, math.Float64bits(res.Outputs[id]))
		put(hist, uint64(id))
		put(hist, uint64(len(res.Histories[id])))
		for _, x := range res.Histories[id] {
			put(hist, math.Float64bits(x))
		}
	}
	trace := fnv.New64a()
	trace.Write([]byte(res.Trace))
	return fmt.Sprintf("steps=%d sent=%d kinds=%s decided=%v trace=%016x outs=%016x hist=%016x",
		res.Steps, res.MessagesSent, strings.Join(kinds, ","), res.Decided,
		trace.Sum64(), outs.Sum64(), hist.Sum64())
}

func iterTraceCells() []iterTraceCell {
	var cells []iterTraceCell
	for _, graph := range []string{"clique:5", "torus:8:8", "expander:32:4:1"} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, policy := range []string{"random", "fifo", "bounded"} {
				for _, fault := range []string{"", "equivocate", "extreme", "silent"} {
					cells = append(cells, iterTraceCell{graph, seed, policy, fault})
				}
			}
		}
	}
	return cells
}

// TestIterTraceFence: the iterative machine on clique:5, torus:8:8 and
// expander:32:4:1, seeds 1-3, under the random, fifo and bounded policies,
// honest and with the last vertex equivocating, sending extremes or silent,
// replays the recorded runs exactly.
func TestIterTraceFence(t *testing.T) {
	cells := iterTraceCells()
	if len(cells) != len(iterTraces) {
		t.Fatalf("%d cells, %d recorded fingerprints", len(cells), len(iterTraces))
	}
	for i, c := range cells {
		if got := iterTraceFingerprint(t, c); got != iterTraces[i] {
			t.Errorf("%v:\n got %s\nwant %s", c, got, iterTraces[i])
		}
	}
}

// iterTraces holds one fingerprint per iterTraceCells() entry, in order.
var iterTraces = []string{
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=7e99633c07ab25c9 outs=88e8999f78fd5a5c hist=1115aac109f5aa93",    // clique:5 seed 1 policy random fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=7e99633c07ab25c9 outs=58fbaf9fb38b0a14 hist=a274151bada083c3",    // clique:5 seed 1 policy random fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=7e99633c07ab25c9 outs=3412791783a8dd56 hist=72dfa65ef9443956",    // clique:5 seed 1 policy random fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=52a58850d44439dd outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 1 policy random fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=326015d9245fe1fe hist=a231845e3b9ad957",    // clique:5 seed 1 policy fifo fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=4980b3a663d3fc40 hist=421259c3339e9e7b",    // clique:5 seed 1 policy fifo fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=4980b3a663d3fc40 hist=421259c3339e9e7b",    // clique:5 seed 1 policy fifo fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=842a66837fdcde5b outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 1 policy fifo fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=0586eaf20298f907 outs=6a409445ed23c57d hist=7f3b2fae5ac7190d",    // clique:5 seed 1 policy bounded fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=0586eaf20298f907 outs=d7b89862d78ec7a4 hist=015f8f6cbf10ee55",    // clique:5 seed 1 policy bounded fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=0586eaf20298f907 outs=fe36a52b8cff2973 hist=2664b28bde3d771e",    // clique:5 seed 1 policy bounded fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=c7d3a49d9f69c36d outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 1 policy bounded fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=ddbc4a835393189f outs=f9290e04884a41ad hist=19b6bfb46a533096",    // clique:5 seed 2 policy random fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=ddbc4a835393189f outs=5ae10ab363151f0f hist=4f1968cbf799ca09",    // clique:5 seed 2 policy random fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=ddbc4a835393189f outs=5ae10ab363151f0f hist=4f1968cbf799ca09",    // clique:5 seed 2 policy random fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=f3a9a2c887e67fb7 outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 2 policy random fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=326015d9245fe1fe hist=a231845e3b9ad957",    // clique:5 seed 2 policy fifo fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=4980b3a663d3fc40 hist=421259c3339e9e7b",    // clique:5 seed 2 policy fifo fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=4980b3a663d3fc40 hist=421259c3339e9e7b",    // clique:5 seed 2 policy fifo fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=842a66837fdcde5b outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 2 policy fifo fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=11194c253193f145 outs=f094b7779af790cb hist=05a3f13e7aa44f9a",    // clique:5 seed 2 policy bounded fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=11194c253193f145 outs=bef4b3cd1c7900cf hist=559c4b9bfe2f0a4d",    // clique:5 seed 2 policy bounded fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=11194c253193f145 outs=bef4b3cd1c7900cf hist=559c4b9bfe2f0a4d",    // clique:5 seed 2 policy bounded fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=7aab70ba07839477 outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 2 policy bounded fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=18b11f74356fd75d outs=47401c867a651057 hist=71505cd9559b8307",    // clique:5 seed 3 policy random fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=18b11f74356fd75d outs=9e414592b32ec1bd hist=be5733fd72a17587",    // clique:5 seed 3 policy random fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=18b11f74356fd75d outs=8b45875ca39978a4 hist=e284b852fd38a416",    // clique:5 seed 3 policy random fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=a2da5b025fc4138f outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 3 policy random fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=326015d9245fe1fe hist=a231845e3b9ad957",    // clique:5 seed 3 policy fifo fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=4980b3a663d3fc40 hist=421259c3339e9e7b",    // clique:5 seed 3 policy fifo fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=4bad6d97f9d52d25 outs=4980b3a663d3fc40 hist=421259c3339e9e7b",    // clique:5 seed 3 policy fifo fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=842a66837fdcde5b outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 3 policy fifo fault "silent"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=d05b775a30738fd1 outs=bdad7f57d620cdee hist=0fbcf50f3a3526a1",    // clique:5 seed 3 policy bounded fault ""
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=d05b775a30738fd1 outs=fb1b350809d9ed12 hist=38a571e41836a772",    // clique:5 seed 3 policy bounded fault "equivocate"
	"steps=120 sent=120 kinds=ITER-VAL:120 decided=true trace=d05b775a30738fd1 outs=921ecff0b730ae3f hist=d24f0c430d7274a9",    // clique:5 seed 3 policy bounded fault "extreme"
	"steps=96 sent=96 kinds=ITER-VAL:96 decided=true trace=1065fa20322c8943 outs=0cdbedd120a945d3 hist=79b48d6bc8d113cc",       // clique:5 seed 3 policy bounded fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=dbaceea2a3a2d09b outs=6f31fad2aef3ca95 hist=715e570ba83f7b2f", // torus:8:8 seed 1 policy random fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=dbaceea2a3a2d09b outs=2dda4a595956a17d hist=95b1a851642c0e06", // torus:8:8 seed 1 policy random fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=dbaceea2a3a2d09b outs=2dda4a595956a17d hist=95b1a851642c0e06", // torus:8:8 seed 1 policy random fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=9e29d55bbd43daf5 outs=007828e9f36f4ae6 hist=1f060d9bd99c5eef", // torus:8:8 seed 1 policy random fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=c28f8f6868dfc632 hist=c635119c7671824c", // torus:8:8 seed 1 policy fifo fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=1eca6c8744109790 hist=3c5799d9d183b0b0", // torus:8:8 seed 1 policy fifo fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=1eca6c8744109790 hist=3c5799d9d183b0b0", // torus:8:8 seed 1 policy fifo fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=3ecb6b68dbf22059 outs=b9a82165ccc2fa76 hist=c3a2f457108e0376", // torus:8:8 seed 1 policy fifo fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=b9446b3fffedb831 outs=62a60e96fd37a3f5 hist=e6a45440ffa9d615", // torus:8:8 seed 1 policy bounded fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=b9446b3fffedb831 outs=285f01bf9d2aaf38 hist=0169edec8cf69d5e", // torus:8:8 seed 1 policy bounded fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=b9446b3fffedb831 outs=285f01bf9d2aaf38 hist=0169edec8cf69d5e", // torus:8:8 seed 1 policy bounded fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=1219f0d06e07b7cd outs=78e93e75112070c8 hist=988b817052e9fbc8", // torus:8:8 seed 1 policy bounded fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0b112b8dc992513 outs=a97071f5f45525b0 hist=6e93f02e66c72c9e", // torus:8:8 seed 2 policy random fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0b112b8dc992513 outs=b7abd32e9bce88a1 hist=da349ae47b58e35e", // torus:8:8 seed 2 policy random fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0b112b8dc992513 outs=b7abd32e9bce88a1 hist=da349ae47b58e35e", // torus:8:8 seed 2 policy random fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=571f406a88af6c05 outs=56cbce4a6f9656b3 hist=0045146123668e9a", // torus:8:8 seed 2 policy random fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=c28f8f6868dfc632 hist=c635119c7671824c", // torus:8:8 seed 2 policy fifo fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=1eca6c8744109790 hist=3c5799d9d183b0b0", // torus:8:8 seed 2 policy fifo fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=1eca6c8744109790 hist=3c5799d9d183b0b0", // torus:8:8 seed 2 policy fifo fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=3ecb6b68dbf22059 outs=b9a82165ccc2fa76 hist=c3a2f457108e0376", // torus:8:8 seed 2 policy fifo fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=acc21ecfa0b7a135 outs=29c40534cda6741d hist=d6b9abcfd7a0c443", // torus:8:8 seed 2 policy bounded fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=acc21ecfa0b7a135 outs=040476d4598b56cd hist=3d4a7e68796979ae", // torus:8:8 seed 2 policy bounded fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=acc21ecfa0b7a135 outs=040476d4598b56cd hist=3d4a7e68796979ae", // torus:8:8 seed 2 policy bounded fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=e995a08e5ada7f73 outs=7ce793e05cc7c388 hist=583a27e62e803afe", // torus:8:8 seed 2 policy bounded fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=4a7d9a34c3ec1191 outs=7a403690e9579e68 hist=653c7ee775ace14c", // torus:8:8 seed 3 policy random fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=4a7d9a34c3ec1191 outs=3a758b71b1b87a7a hist=4d870222c933360f", // torus:8:8 seed 3 policy random fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=4a7d9a34c3ec1191 outs=3a758b71b1b87a7a hist=4d870222c933360f", // torus:8:8 seed 3 policy random fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=8ecd620cd5c30e11 outs=56bbe58b635fcb22 hist=a49e58e1dc9ad337", // torus:8:8 seed 3 policy random fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=c28f8f6868dfc632 hist=c635119c7671824c", // torus:8:8 seed 3 policy fifo fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=1eca6c8744109790 hist=3c5799d9d183b0b0", // torus:8:8 seed 3 policy fifo fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=f0a71a29dd6ccc6b outs=1eca6c8744109790 hist=3c5799d9d183b0b0", // torus:8:8 seed 3 policy fifo fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=3ecb6b68dbf22059 outs=b9a82165ccc2fa76 hist=c3a2f457108e0376", // torus:8:8 seed 3 policy fifo fault "silent"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=06a96cd42788b28b outs=fec144777cb8d194 hist=06368039c913c78e", // torus:8:8 seed 3 policy bounded fault ""
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=06a96cd42788b28b outs=40d5101f90920a1d hist=2a1cb442a9d7f2b5", // torus:8:8 seed 3 policy bounded fault "equivocate"
	"steps=1536 sent=1536 kinds=ITER-VAL:1536 decided=true trace=06a96cd42788b28b outs=40d5101f90920a1d hist=2a1cb442a9d7f2b5", // torus:8:8 seed 3 policy bounded fault "extreme"
	"steps=1512 sent=1512 kinds=ITER-VAL:1512 decided=true trace=3646994464352a61 outs=291fff984f4ddf00 hist=2444abcddd5321dd", // torus:8:8 seed 3 policy bounded fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=a0376ebaf4aebe81 outs=02bba3d655cb3a79 hist=61702699c8621ef6",    // expander:32:4:1 seed 1 policy random fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=a0376ebaf4aebe81 outs=0d7b64ba19043c9b hist=c15cb59d22279cc6",    // expander:32:4:1 seed 1 policy random fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=a0376ebaf4aebe81 outs=0d7b64ba19043c9b hist=c15cb59d22279cc6",    // expander:32:4:1 seed 1 policy random fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=551202fb0e626ba7 outs=1844f7292abd8d6f hist=d382186e0f839ec5",    // expander:32:4:1 seed 1 policy random fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=5682ae266e1bd2a5 hist=64c4430034db874e",    // expander:32:4:1 seed 1 policy fifo fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=6ec6bb74c427fd4f hist=31d0f2738e800951",    // expander:32:4:1 seed 1 policy fifo fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=6ec6bb74c427fd4f hist=31d0f2738e800951",    // expander:32:4:1 seed 1 policy fifo fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=29799f1c6ed1a309 outs=bf9e6d1b4b5ff294 hist=34777cbe3d9a8f87",    // expander:32:4:1 seed 1 policy fifo fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=e0d02315f0655247 outs=c592c74815bfe70e hist=efc269a28f0787d7",    // expander:32:4:1 seed 1 policy bounded fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=e0d02315f0655247 outs=26219de42866204f hist=da3d116fdec0b080",    // expander:32:4:1 seed 1 policy bounded fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=e0d02315f0655247 outs=26219de42866204f hist=da3d116fdec0b080",    // expander:32:4:1 seed 1 policy bounded fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=bd7fc65418aa4c03 outs=f68fdf131d9d2377 hist=3de59360be266aab",    // expander:32:4:1 seed 1 policy bounded fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=1bffb13b033a4791 outs=0ef4b09cf20f7ad8 hist=93c1250d06758d04",    // expander:32:4:1 seed 2 policy random fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=1bffb13b033a4791 outs=842ea9ef4b79322a hist=7b60b170de2e7761",    // expander:32:4:1 seed 2 policy random fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=1bffb13b033a4791 outs=842ea9ef4b79322a hist=7b60b170de2e7761",    // expander:32:4:1 seed 2 policy random fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=05c89731b7200af5 outs=ee6b14f34adbdb6f hist=ef6ae592cf410e06",    // expander:32:4:1 seed 2 policy random fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=5682ae266e1bd2a5 hist=64c4430034db874e",    // expander:32:4:1 seed 2 policy fifo fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=6ec6bb74c427fd4f hist=31d0f2738e800951",    // expander:32:4:1 seed 2 policy fifo fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=6ec6bb74c427fd4f hist=31d0f2738e800951",    // expander:32:4:1 seed 2 policy fifo fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=29799f1c6ed1a309 outs=bf9e6d1b4b5ff294 hist=34777cbe3d9a8f87",    // expander:32:4:1 seed 2 policy fifo fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=15b157f83ad509bd outs=5f6c586a5be7bf6c hist=7770709fd2610d97",    // expander:32:4:1 seed 2 policy bounded fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=15b157f83ad509bd outs=489a77d70137166d hist=7c4c817323da755a",    // expander:32:4:1 seed 2 policy bounded fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=15b157f83ad509bd outs=489a77d70137166d hist=7c4c817323da755a",    // expander:32:4:1 seed 2 policy bounded fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=c671ccaabfae805b outs=c3b1b04e1c3a9358 hist=6f7bed946686865f",    // expander:32:4:1 seed 2 policy bounded fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=2fbb8e5af41be887 outs=6ef4652b932bc80f hist=56560775391a5422",    // expander:32:4:1 seed 3 policy random fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=2fbb8e5af41be887 outs=089fa01b177f499a hist=9c648f139d02ae92",    // expander:32:4:1 seed 3 policy random fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=2fbb8e5af41be887 outs=089fa01b177f499a hist=9c648f139d02ae92",    // expander:32:4:1 seed 3 policy random fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=57e1259c447444cd outs=d81c1be6d30a19b7 hist=038d17c506323815",    // expander:32:4:1 seed 3 policy random fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=5682ae266e1bd2a5 hist=64c4430034db874e",    // expander:32:4:1 seed 3 policy fifo fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=6ec6bb74c427fd4f hist=31d0f2738e800951",    // expander:32:4:1 seed 3 policy fifo fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=8e52f2710a79d7d5 outs=6ec6bb74c427fd4f hist=31d0f2738e800951",    // expander:32:4:1 seed 3 policy fifo fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=29799f1c6ed1a309 outs=bf9e6d1b4b5ff294 hist=34777cbe3d9a8f87",    // expander:32:4:1 seed 3 policy fifo fault "silent"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=44f75382e2b15a1f outs=52f31183ccabac00 hist=c61f2578f69e7a59",    // expander:32:4:1 seed 3 policy bounded fault ""
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=44f75382e2b15a1f outs=99f199f12815437b hist=8e80cc6eefa15b6d",    // expander:32:4:1 seed 3 policy bounded fault "equivocate"
	"steps=768 sent=768 kinds=ITER-VAL:768 decided=true trace=44f75382e2b15a1f outs=99f199f12815437b hist=8e80cc6eefa15b6d",    // expander:32:4:1 seed 3 policy bounded fault "extreme"
	"steps=744 sent=744 kinds=ITER-VAL:744 decided=true trace=f6102fd575974903 outs=372dd77f10bf7f41 hist=c0ad372bf1788800",    // expander:32:4:1 seed 3 policy bounded fault "silent"
}

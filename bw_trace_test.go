// Trace fences for the two path-flooding algorithms. The BW literals were
// recorded at commit ea816bc, before internal/bw's round state moved from
// path strings, set keys and per-snapshot maps to plan indices; the
// crashapprox literals at dad1f2f, while its machine still spelled paths
// out and keyed them by string. They pin the delivery schedule and every
// honest output, so any change to when a node relays, fires a thread,
// FIFO-receives or advances a round shows up here as a diff against a
// known-good run.
package repro_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"repro"
)

// traceFingerprint runs protocol (f=1, K=4, eps=0.1) on graph under the
// inline engine and condenses everything the schedule determines into one
// line: delivery and send counts, sends by kind, an FNV-64a hash of the full
// delivery trace, and every honest output's exact bit pattern.
func traceFingerprint(t *testing.T, protocol, graph string, inputs []float64, seed int64, fault string) string {
	t.Helper()
	s := repro.Scenario{
		Graph: graph, Protocol: protocol, Inputs: inputs,
		F: 1, K: 4, Eps: 0.1, Seed: seed, Engine: "inline", RecordTrace: true,
	}
	if fault != "" {
		s.Faults = []repro.FaultSpec{{Node: len(inputs) - 1, Kind: fault}}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("%s on %s seed %d fault %q: honest nodes did not all decide", protocol, graph, seed, fault)
	}
	kinds := make([]string, 0, len(res.ByKind))
	for k, c := range res.ByKind {
		kinds = append(kinds, fmt.Sprintf("%s:%d", k, c))
	}
	sort.Strings(kinds)
	ids := make([]int, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	outs := make([]string, len(ids))
	for i, id := range ids {
		outs[i] = fmt.Sprintf("%d:%016x", id, math.Float64bits(res.Outputs[id]))
	}
	h := fnv.New64a()
	h.Write([]byte(res.Trace))
	return fmt.Sprintf("steps=%d sent=%d kinds=%s trace=%016x outs=%s",
		res.Steps, res.MessagesSent, strings.Join(kinds, ","), h.Sum64(), strings.Join(outs, ","))
}

var bwTraceInputs = map[string][]float64{
	"fig1a":        {0.1, 3.9, 1.3, 2.7, 0.6},
	"clique:4":     {0.1, 3.9, 1.3, 2.7},
	"fig1b-analog": {0.1, 3.9, 1.3, 2.7, 0.6, 3.2, 1.9, 2.2},
}

var bwTraces = []struct {
	graph string
	seed  int64
	fault string // run by the highest-numbered vertex; "" is the honest cell
	want  string
}{
	{"fig1a", 1, "", "steps=26664 sent=26664 kinds=COMPLETE:4680,VAL:21984 trace=fa5e4ddb81f3bc39 outs=0:3ffa466666666667,1:3ffab33333333334,2:3ffa666666666667,3:3ffa666666666667,4:3ffa666666666667"},
	{"fig1a", 1, "tamper", "steps=18973 sent=18973 kinds=COMPLETE:744,VAL:18229 trace=e6432ec1b2c8dba7 outs=0:3ff6666666666680,1:3ff6b33333333349,2:3ff6666666666680,3:3ff6666666666680"},
	{"fig1a", 1, "equivocate", "steps=18973 sent=18973 kinds=COMPLETE:744,VAL:18229 trace=e6432ec1b2c8dba7 outs=0:3fffb33333333333,1:4000266666666666,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 2, "", "steps=26664 sent=26664 kinds=COMPLETE:4680,VAL:21984 trace=4401c42efa7bc199 outs=0:3ffa466666666667,1:3ffab33333333334,2:3ffa666666666667,3:3ffa666666666667,4:3ffa666666666667"},
	{"fig1a", 2, "tamper", "steps=18973 sent=18973 kinds=COMPLETE:744,VAL:18229 trace=cd5e5df34362e797 outs=0:3ff6666666666680,1:3ff6b33333333349,2:3ff6666666666680,3:3ff6666666666680"},
	{"fig1a", 2, "equivocate", "steps=18973 sent=18973 kinds=COMPLETE:744,VAL:18229 trace=cd5e5df34362e797 outs=0:3fffb33333333333,1:4000266666666666,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 3, "", "steps=26664 sent=26664 kinds=COMPLETE:4680,VAL:21984 trace=14782416f6dd0c67 outs=0:3ffa466666666667,1:3ffab33333333334,2:3ffa666666666667,3:3ffa666666666667,4:3ffa666666666667"},
	{"fig1a", 3, "tamper", "steps=18973 sent=18973 kinds=COMPLETE:744,VAL:18229 trace=61c9aa4434de07d7 outs=0:3ff6666666666680,1:3ff6b33333333349,2:3ff6666666666680,3:3ff6666666666680"},
	{"fig1a", 3, "equivocate", "steps=18973 sent=18973 kinds=COMPLETE:744,VAL:18229 trace=61c9aa4434de07d7 outs=0:3fffb33333333333,1:4000266666666666,2:4000000000000000,3:4000000000000000"},
	{"clique:4", 1, "", "steps=5760 sent=5760 kinds=COMPLETE:1440,VAL:4320 trace=7381fc364482b643 outs=0:3fffb33333333333,1:4000266666666666,2:4000000000000000,3:4000000000000000"},
	{"clique:4", 1, "tamper", "steps=3690 sent=3690 kinds=COMPLETE:270,VAL:3420 trace=0eacbdea84894bb0 outs=0:3ff666666666667e,1:3ff6b33333333348,2:3ff666666666667e"},
	{"clique:4", 1, "equivocate", "steps=3690 sent=3690 kinds=COMPLETE:270,VAL:3420 trace=0eacbdea84894bb0 outs=0:4004a66666666666,1:4004cccccccccccd,2:4004cccccccccccd"},
	{"clique:4", 2, "", "steps=5760 sent=5760 kinds=COMPLETE:1440,VAL:4320 trace=05d196e8a73a1663 outs=0:3fffb33333333333,1:4000266666666666,2:4000000000000000,3:4000000000000000"},
	{"clique:4", 2, "tamper", "steps=3690 sent=3690 kinds=COMPLETE:270,VAL:3420 trace=536b80f7fa82fa4c outs=0:3ff666666666667f,1:3ff6b33333333348,2:3ff666666666667f"},
	{"clique:4", 2, "equivocate", "steps=3690 sent=3690 kinds=COMPLETE:270,VAL:3420 trace=536b80f7fa82fa4c outs=0:4004a66666666666,1:4004cccccccccccd,2:4004cccccccccccd"},
	{"clique:4", 3, "", "steps=5760 sent=5760 kinds=COMPLETE:1440,VAL:4320 trace=86d742923d5ab5e9 outs=0:3fffb33333333333,1:4000266666666666,2:4000000000000000,3:4000000000000000"},
	{"clique:4", 3, "tamper", "steps=3690 sent=3690 kinds=COMPLETE:270,VAL:3420 trace=39a7a0c319b0c8ec outs=0:3ff666666666667e,1:3ff6b33333333346,2:3ff666666666667e"},
	{"clique:4", 3, "equivocate", "steps=3690 sent=3690 kinds=COMPLETE:270,VAL:3420 trace=39a7a0c319b0c8ec outs=0:4004a66666666666,1:4004cccccccccccd,2:4004cccccccccccd"},
	{"fig1b-analog", 1, "", "steps=1560048 sent=1560048 kinds=COMPLETE:79872,VAL:1480176 trace=4170857640ccbccd outs=0:3ffe466666666667,1:3ffe933333333334,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667,7:3ffe666666666667"},
}

// TestBWTraceFence: BW on fig1a and clique:4, seeds 1-3, honest and with
// the last vertex tampering or equivocating, plus one honest fig1b-analog
// cell (1.56 M deliveries, skipped under -short), replay the recorded runs
// exactly.
func TestBWTraceFence(t *testing.T) {
	for _, tc := range bwTraces {
		if tc.graph == "fig1b-analog" && testing.Short() {
			continue
		}
		inputs := bwTraceInputs[tc.graph]
		if got := traceFingerprint(t, "bw", tc.graph, inputs, tc.seed, tc.fault); got != tc.want {
			t.Errorf("%s seed %d fault %q:\n got %s\nwant %s", tc.graph, tc.seed, tc.fault, got, tc.want)
		}
	}
}

var crashTraceInputs = map[string][]float64{
	"fig1a":           {0, 4, 1, 3, 2},
	"circulant:5:1,2": {0, 4, 1, 3, 2},
	"clique:3":        {0, 4, 1},
}

var crashTraces = []struct {
	graph string
	seed  int64
	fault string // run by the highest-numbered vertex; "" is the honest cell
	want  string
}{
	{"fig1a", 1, "", "steps=936 sent=936 kinds=CRASH-VAL:936 trace=e616bd5aca24648b outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"fig1a", 1, "crash", "steps=543 sent=543 kinds=CRASH-VAL:543 trace=22040433615c1845 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 1, "silent", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=cbb6d7e2570ee739 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 2, "", "steps=936 sent=936 kinds=CRASH-VAL:936 trace=cc7fc8a05015b35f outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"fig1a", 2, "crash", "steps=516 sent=516 kinds=CRASH-VAL:516 trace=3b5d6eb09701b30c outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 2, "silent", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=84000970eb92aad3 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 3, "", "steps=936 sent=936 kinds=CRASH-VAL:936 trace=8e7c11f7c7c2bb11 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"fig1a", 3, "crash", "steps=503 sent=503 kinds=CRASH-VAL:503 trace=bfdedd3fbdd4d832 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 3, "silent", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=da007284e164e521 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 4, "", "steps=936 sent=936 kinds=CRASH-VAL:936 trace=82c1b640d174cf1f outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"fig1a", 4, "crash", "steps=508 sent=508 kinds=CRASH-VAL:508 trace=6c906c5e43b330de outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 4, "silent", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=28885420949409b9 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 5, "", "steps=936 sent=936 kinds=CRASH-VAL:936 trace=88959c24026a741b outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"fig1a", 5, "crash", "steps=493 sent=493 kinds=CRASH-VAL:493 trace=4c10052ff275da3b outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"fig1a", 5, "silent", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=7fc16a5c8a3365bd outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 1, "", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=b1c827aeb5082525 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"circulant:5:1,2", 1, "crash", "steps=270 sent=270 kinds=CRASH-VAL:270 trace=2e2cef7e93f40272 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 1, "silent", "steps=198 sent=198 kinds=CRASH-VAL:198 trace=3511fdedadccb48c outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 2, "", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=96c8c421e14bb9f9 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"circulant:5:1,2", 2, "crash", "steps=267 sent=267 kinds=CRASH-VAL:267 trace=0d3dfd92227e3655 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 2, "silent", "steps=198 sent=198 kinds=CRASH-VAL:198 trace=30c20f875cc68c04 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 3, "", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=218b45061de4a703 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"circulant:5:1,2", 3, "crash", "steps=270 sent=270 kinds=CRASH-VAL:270 trace=954106a6406967d1 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 3, "silent", "steps=198 sent=198 kinds=CRASH-VAL:198 trace=f7114ec44977548e outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 4, "", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=35bd06597e6bf37b outs=0:3ffc000000000000,1:3ffc000000000000,2:3ffc000000000000,3:3ffc000000000000,4:3ffc000000000000"},
	{"circulant:5:1,2", 4, "crash", "steps=263 sent=263 kinds=CRASH-VAL:263 trace=805c9ec5fb1bdac4 outs=0:3ffc000000000000,1:3ffc000000000000,2:3ffc000000000000,3:3ffc000000000000"},
	{"circulant:5:1,2", 4, "silent", "steps=198 sent=198 kinds=CRASH-VAL:198 trace=f7fbb10bdaea101c outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 5, "", "steps=420 sent=420 kinds=CRASH-VAL:420 trace=4d120bc876434cfd outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000,4:4000000000000000"},
	{"circulant:5:1,2", 5, "crash", "steps=259 sent=259 kinds=CRASH-VAL:259 trace=9b4fea83e9a259f8 outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"circulant:5:1,2", 5, "silent", "steps=198 sent=198 kinds=CRASH-VAL:198 trace=df50758cf499b4fc outs=0:4000000000000000,1:4000000000000000,2:4000000000000000,3:4000000000000000"},
	{"clique:3", 1, "", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=3d66c495b770a121 outs=0:3ff8000000000000,1:3ff8000000000000,2:3ff8000000000000"},
	{"clique:3", 1, "crash", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=3d66c495b770a121 outs=0:3ff8000000000000,1:3ff8000000000000"},
	{"clique:3", 1, "silent", "steps=36 sent=36 kinds=CRASH-VAL:36 trace=e97c10843c508059 outs=0:4000000000000000,1:4000000000000000"},
	{"clique:3", 2, "", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=5d0a7251fea78439 outs=0:3ffe000000000000,1:3ffe000000000000,2:3ffe000000000000"},
	{"clique:3", 2, "crash", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=5d0a7251fea78439 outs=0:3ffe000000000000,1:3ffe000000000000"},
	{"clique:3", 2, "silent", "steps=36 sent=36 kinds=CRASH-VAL:36 trace=94077073ceb70a2f outs=0:4000000000000000,1:4000000000000000"},
	{"clique:3", 3, "", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=6d94532bbd0f99af outs=0:3ff1000000000000,1:3ff1000000000000,2:3ff1000000000000"},
	{"clique:3", 3, "crash", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=6d94532bbd0f99af outs=0:3ff1000000000000,1:3ff1000000000000"},
	{"clique:3", 3, "silent", "steps=36 sent=36 kinds=CRASH-VAL:36 trace=7c46a99e84351327 outs=0:4000000000000000,1:4000000000000000"},
	{"clique:3", 4, "", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=20a9b29c147374ff outs=0:3ff1000000000000,1:3ff1000000000000,2:3ff1000000000000"},
	{"clique:3", 4, "crash", "steps=71 sent=71 kinds=CRASH-VAL:71 trace=f7ff2afd163f2c90 outs=0:3ff1000000000000,1:3ff1000000000000"},
	{"clique:3", 4, "silent", "steps=36 sent=36 kinds=CRASH-VAL:36 trace=22e2921dd6c9ba25 outs=0:4000000000000000,1:4000000000000000"},
	{"clique:3", 5, "", "steps=72 sent=72 kinds=CRASH-VAL:72 trace=4322b654a116edbf outs=0:3ff4800000000000,1:3ff4800000000000,2:3ff4800000000000"},
	{"clique:3", 5, "crash", "steps=71 sent=71 kinds=CRASH-VAL:71 trace=f2f232ae208ac9d3 outs=0:3ff4800000000000,1:3ff4800000000000"},
	{"clique:3", 5, "silent", "steps=36 sent=36 kinds=CRASH-VAL:36 trace=0942f69bba5fe67f outs=0:4000000000000000,1:4000000000000000"},
}

// TestCrashTraceFence: crashapprox on fig1a, circulant:5:1,2 and clique:3,
// seeds 1-5, honest, with the last vertex crashing after 20 deliveries and
// with it silent from the start, replays the recorded runs exactly.
func TestCrashTraceFence(t *testing.T) {
	for _, tc := range crashTraces {
		inputs := crashTraceInputs[tc.graph]
		if got := traceFingerprint(t, "crashapprox", tc.graph, inputs, tc.seed, tc.fault); got != tc.want {
			t.Errorf("%s seed %d fault %q:\n got %s\nwant %s", tc.graph, tc.seed, tc.fault, got, tc.want)
		}
	}
}

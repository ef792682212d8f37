// Trace fence for Algorithm BW: the literals below were recorded at commit
// ea816bc, before internal/bw's round state moved from path strings, set
// keys and per-snapshot maps to plan indices. They pin the delivery
// schedule and every honest output, so any change to when a node relays,
// fires Maximal-Consistency, FIFO-receives or advances a round shows up
// here as a diff against a known-good run.
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

// bwTraceFingerprint runs BW (f=1, K=4, eps=0.1) on graph under the inline
// engine and condenses everything the schedule determines into one line:
// delivery and send counts, sends by kind, an FNV-64a hash of the full
// delivery trace, and every honest output's exact bit pattern.
func bwTraceFingerprint(t *testing.T, graph string, inputs []float64, seed int64, fault string) string {
	t.Helper()
	s := repro.Scenario{
		Graph: graph, Protocol: "bw", Inputs: inputs,
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
		t.Fatalf("%s seed %d fault %q: honest nodes did not all decide", graph, seed, fault)
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
		if got := bwTraceFingerprint(t, tc.graph, inputs, tc.seed, tc.fault); got != tc.want {
			t.Errorf("%s seed %d fault %q:\n got %s\nwant %s", tc.graph, tc.seed, tc.fault, got, tc.want)
		}
	}
}

// Trace fence for the rbc substrate: the literals below were recorded at
// commit f22be2d, before rbc state moved from content-string maps to slot
// indices. They pin the delivery schedule and the outputs of both rbc
// consumers, so any change to when a node echoes, readies or delivers
// shows up here as a diff against a known-good run.
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

// rbcTraceFingerprint runs one rbc-backed protocol on clique:8, f=1 under
// the inline engine and condenses everything the schedule determines into
// one line: delivery and send counts, sends by kind, an FNV-64a hash of the
// full delivery trace, and every honest output's exact bit pattern.
func rbcTraceFingerprint(t *testing.T, protocol string, seed int64, equivocate bool) string {
	t.Helper()
	s := repro.Scenario{
		Graph: "clique:8", Protocol: protocol,
		Inputs: []float64{0.1, 3.9, 1.3, 2.7, 0.6, 3.2, 1.9, 2.2},
		F:      1, K: 4, Eps: 0.1, Seed: seed, Engine: "inline", RecordTrace: true,
	}
	if equivocate {
		s.Faults = []repro.FaultSpec{{Node: 7, Kind: "equivocate"}}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("%s seed %d: honest nodes did not all decide", protocol, seed)
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

var rbcTraces = []struct {
	protocol   string
	seed       int64
	equivocate bool
	want       string
}{
	{"aad", 1, false, "steps=11424 sent=11424 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5376 trace=a7a2a3d3c12d1f39 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667,7:3ffe666666666667"},
	{"aad", 1, true, "steps=11088 sent=11088 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5040 trace=326fdfc4d7508541 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667"},
	{"aad", 2, false, "steps=11424 sent=11424 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5376 trace=54e026fd17290579 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667,7:3ffe666666666667"},
	{"aad", 2, true, "steps=11088 sent=11088 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5040 trace=c0a4dd57aca3ba97 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667"},
	{"aad", 3, false, "steps=11424 sent=11424 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5376 trace=376d6ffccb93a47b outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667,7:3ffe666666666667"},
	{"aad", 3, true, "steps=11088 sent=11088 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5040 trace=2f51c7c302b422f1 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667"},
	{"aad", 4, false, "steps=11424 sent=11424 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5376 trace=0f8744be412b7247 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667,7:3ffe666666666667"},
	{"aad", 4, true, "steps=11088 sent=11088 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5040 trace=e15b3aa7695d9d2b outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667"},
	{"aad", 5, false, "steps=11424 sent=11424 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5376 trace=3a6f6fe1e1cb6997 outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667,7:3ffe666666666667"},
	{"aad", 5, true, "steps=11088 sent=11088 kinds=RBC-ECHO:5376,RBC-INIT:672,RBC-READY:5040 trace=514a84ce51584fad outs=0:3ffe666666666667,1:3ffe666666666667,2:3ffe666666666667,3:3ffe666666666667,4:3ffe666666666667,5:3ffe666666666667,6:3ffe666666666667"},
	{"acs", 1, false, "steps=3458 sent=3458 kinds=ABA-AUX:987,ABA-BVAL:1071,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:448 trace=bb7d0ba42da49df9 outs=0:3fffccccccccccce,1:3fffccccccccccce,2:3fffccccccccccce,3:3fffccccccccccce,4:3fffccccccccccce,5:3fffccccccccccce,6:3fffccccccccccce,7:3fffccccccccccce"},
	{"acs", 1, true, "steps=2912 sent=2912 kinds=ABA-AUX:714,ABA-BVAL:854,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:392 trace=b594b48047a421f1 outs=0:3fff507507507508,1:3fff507507507508,2:3fff507507507508,3:3fff507507507508,4:3fff507507507508,5:3fff507507507508,6:3fff507507507508"},
	{"acs", 2, false, "steps=5068 sent=5068 kinds=ABA-AUX:1771,ABA-BVAL:1897,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:448 trace=395568bf4f504074 outs=0:3fffccccccccccce,1:3fffccccccccccce,2:3fffccccccccccce,3:3fffccccccccccce,4:3fffccccccccccce,5:3fffccccccccccce,6:3fffccccccccccce,7:3fffccccccccccce"},
	{"acs", 2, true, "steps=4865 sent=4865 kinds=ABA-AUX:1708,ABA-BVAL:1813,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:392 trace=40e6d47cd033ff2b outs=0:3fff507507507508,1:3fff507507507508,2:3fff507507507508,3:3fff507507507508,4:3fff507507507508,5:3fff507507507508,6:3fff507507507508"},
	{"acs", 3, false, "steps=3710 sent=3710 kinds=ABA-AUX:1085,ABA-BVAL:1225,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:448 trace=6d684db04167af39 outs=0:3fffccccccccccce,1:3fffccccccccccce,2:3fffccccccccccce,3:3fffccccccccccce,4:3fffccccccccccce,5:3fffccccccccccce,6:3fffccccccccccce,7:3fffccccccccccce"},
	{"acs", 3, true, "steps=3920 sent=3920 kinds=ABA-AUX:1225,ABA-BVAL:1351,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:392 trace=bca38b915cdcf0a0 outs=0:3fff507507507508,1:3fff507507507508,2:3fff507507507508,3:3fff507507507508,4:3fff507507507508,5:3fff507507507508,6:3fff507507507508"},
	{"acs", 4, false, "steps=2947 sent=2947 kinds=ABA-AUX:721,ABA-BVAL:826,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:448 trace=c14aad7fa87893fc outs=0:3fffccccccccccce,1:3fffccccccccccce,2:3fffccccccccccce,3:3fffccccccccccce,4:3fffccccccccccce,5:3fffccccccccccce,6:3fffccccccccccce,7:3fffccccccccccce"},
	{"acs", 4, true, "steps=3038 sent=3038 kinds=ABA-AUX:798,ABA-BVAL:896,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:392 trace=3598077045587f0c outs=0:3fff507507507508,1:3fff507507507508,2:3fff507507507508,3:3fff507507507508,4:3fff507507507508,5:3fff507507507508,6:3fff507507507508"},
	{"acs", 5, false, "steps=3738 sent=3738 kinds=ABA-AUX:1113,ABA-BVAL:1225,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:448 trace=c94626697c3d2465 outs=0:3fffccccccccccce,1:3fffccccccccccce,2:3fffccccccccccce,3:3fffccccccccccce,4:3fffccccccccccce,5:3fffccccccccccce,6:3fffccccccccccce,7:3fffccccccccccce"},
	{"acs", 5, true, "steps=4305 sent=4305 kinds=ABA-AUX:1442,ABA-BVAL:1519,ABA-DONE:448,RBC-ECHO:448,RBC-INIT:56,RBC-READY:392 trace=8d79676bf8e13c08 outs=0:3fff507507507508,1:3fff507507507508,2:3fff507507507508,3:3fff507507507508,4:3fff507507507508,5:3fff507507507508,6:3fff507507507508"},
}

// TestRBCRefactorKeepsTraces: aad and acs on clique:8, f=1, five seeds,
// with and without an equivocating vertex 7, replay the recorded runs
// exactly.
func TestRBCRefactorKeepsTraces(t *testing.T) {
	for _, tc := range rbcTraces {
		if got := rbcTraceFingerprint(t, tc.protocol, tc.seed, tc.equivocate); got != tc.want {
			t.Errorf("%s seed %d equivocate=%v:\n got %s\nwant %s", tc.protocol, tc.seed, tc.equivocate, got, tc.want)
		}
	}
}

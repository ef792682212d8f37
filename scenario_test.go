package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro"
)

// TestScenarioJSONGolden pins the canonical serialized form: encode must
// produce exactly this document, and decoding it must reproduce the value.
func TestScenarioJSONGolden(t *testing.T) {
	s := repro.Scenario{
		Name:     "fig1a-bw-tamper",
		Graph:    "fig1a",
		Protocol: "bw",
		Inputs:   []float64{0, 4, 1, 3, 2},
		F:        1,
		K:        4,
		Eps:      0.25,
		Seed:     42,
		Engine:   "inline",
		Policy:   &repro.PolicySpec{Name: "bounded", Params: map[string]float64{"bound": 8}},
		Faults: []repro.FaultSpec{
			{Node: 2, Kind: "tamper", Params: map[string]float64{"delta": 50},
				Compose: []repro.Mutation{{Kind: "noise", Params: map[string]float64{"amp": 3}}}},
			{Node: 1, Kind: "silent"},
		},
		LinkFaults: []repro.LinkFault{
			{Kind: "duplicate", Edges: [][2]int{{0, 2}}, Params: map[string]float64{"prob": 0.5}},
			{Kind: "partition", Nodes: []int{1, 2}, Params: map[string]float64{"heal": 4}},
		},
		RecordTrace: true,
	}
	got, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "name": "fig1a-bw-tamper",
  "graph": "fig1a",
  "protocol": "bw",
  "inputs": [
    0,
    4,
    1,
    3,
    2
  ],
  "f": 1,
  "k": 4,
  "eps": 0.25,
  "seed": 42,
  "engine": "inline",
  "policy": {
    "name": "bounded",
    "params": {
      "bound": 8
    }
  },
  "faults": [
    {
      "node": 1,
      "kind": "silent"
    },
    {
      "node": 2,
      "kind": "tamper",
      "params": {
        "delta": 50
      },
      "compose": [
        {
          "kind": "noise",
          "params": {
            "amp": 3
          }
        }
      ]
    }
  ],
  "linkFaults": [
    {
      "kind": "duplicate",
      "edges": [
        [
          0,
          2
        ]
      ],
      "params": {
        "prob": 0.5
      }
    },
    {
      "kind": "partition",
      "nodes": [
        1,
        2
      ],
      "params": {
        "heal": 4
      }
    }
  ],
  "recordTrace": true
}`
	if string(got) != golden {
		t.Errorf("canonical JSON drifted:\n%s\nwant:\n%s", got, golden)
	}

	back, err := repro.ParseScenario(got)
	if err != nil {
		t.Fatal(err)
	}
	// JSON() canonicalizes: faults in node order.
	want := s
	want.Faults = []repro.FaultSpec{
		{Node: 1, Kind: "silent"},
		{Node: 2, Kind: "tamper", Params: map[string]float64{"delta": 50},
			Compose: []repro.Mutation{{Kind: "noise", Params: map[string]float64{"amp": 3}}}},
	}
	if !reflect.DeepEqual(*back, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", *back, want)
	}
}

func TestParseScenarioRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name   string
		doc    string
		errHas string
	}{
		{"unknown field", `{"graph":"fig1a","protocol":"bw","budget":9}`, "budget"},
		{"trailing data", `{"graph":"fig1a","protocol":"bw"} {"x":1}`, "trailing"},
		{"trailing brace", `{"graph":"fig1a","protocol":"bw"} }`, "trailing"},
		{"trailing garbage", `{"graph":"fig1a","protocol":"bw"} not-json`, "trailing"},
		{"missing graph", `{"protocol":"bw"}`, "missing graph"},
		{"bad graph", `{"graph":"hypercube:4","protocol":"bw"}`, "unknown spec"},
		{"missing protocol", `{"graph":"fig1a"}`, "missing protocol"},
		{"bad protocol", `{"graph":"fig1a","protocol":"paxos"}`, "unknown protocol"},
		{"bad engine", `{"graph":"fig1a","protocol":"bw","engine":"quantum"}`, "removed"},
		{"parallel engine", `{"graph":"fig1a","protocol":"bw","engine":"parallel"}`, "removed"},
		{"goroutine engine", `{"graph":"fig1a","protocol":"bw","engine":"goroutine"}`, "removed"},
		{"engine workers", `{"graph":"fig1a","protocol":"bw","engine":"inline","engineWorkers":2}`, "removed"},
		{"bad policy", `{"graph":"fig1a","protocol":"bw","policy":{"name":"warp"}}`, "unknown policy"},
		{"bad policy param", `{"graph":"fig1a","protocol":"bw","policy":{"name":"fifo","params":{"bound":3}}}`, "unknown param"},
		{"missing policy param", `{"graph":"fig1a","protocol":"bw","policy":{"name":"bounded"}}`, `missing param "bound"`},
		{"bad fault kind", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"gaslight"}]}`, "unknown fault kind"},
		{"bad fault param", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"crash","params":{"fuel":3}}]}`, `unknown param "fuel"`},
		{"scalar on paramless kind", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"silent","param":2}]}`, `"params"`},
		{"scalar vs params conflict", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"extreme","param":2,"params":{"value":3}}]}`, `"params"`},
		{"bad compose kind", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"crash","compose":[{"kind":"warp"}]}]}`, "unknown fault kind"},
		{"non-mutator compose", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"noise","compose":[{"kind":"silent"}]}]}`, "cannot compose"},
		{"compose under silent", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"silent","compose":[{"kind":"noise"}]}]}`, "cannot carry composed mutators"},
		{"fault param out of range", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"replay","params":{"prob":7}}]}`, "outside [0, 1]"},
		{"fault node range", `{"graph":"fig1a","protocol":"bw","faults":[{"node":5,"kind":"silent"}]}`, "outside graph order"},
		{"bad link kind", `{"graph":"fig1a","protocol":"bw","linkFaults":[{"kind":"sever","edges":[[0,1]]}]}`, "unknown link fault kind"},
		{"link non-edge", `{"graph":"fig1a","protocol":"bw","linkFaults":[{"kind":"drop","edges":[[1,3]]}]}`, "not an edge"},
		{"link bad param", `{"graph":"fig1a","protocol":"bw","linkFaults":[{"kind":"drop","edges":[[0,1]],"params":{"rate":1}}]}`, `unknown param "rate"`},
		{"link no edges", `{"graph":"fig1a","protocol":"bw","linkFaults":[{"kind":"delay"}]}`, "at least one edge"},
		{"partition with edges", `{"graph":"fig1a","protocol":"bw","linkFaults":[{"kind":"partition","edges":[[0,1]],"nodes":[0]}]}`, "takes nodes"},
		{"duplicate fault", `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"silent"},{"node":1,"kind":"noise"}]}`, "two fault entries"},
		{"inputs arity", `{"graph":"fig1a","protocol":"bw","inputs":[1,2]}`, "2 inputs for 5 nodes"},
		{"inputs and gen", `{"graph":"fig1a","protocol":"bw","inputs":[0,1,2,3,4],"inputGen":{"kind":"const"}}`, "mutually exclusive"},
		{"bad gen kind", `{"graph":"fig1a","protocol":"bw","inputGen":{"kind":"zipf"}}`, "unknown inputGen kind"},
		{"bad gen mod", `{"graph":"fig1a","protocol":"bw","inputGen":{"kind":"mod"}}`, "must be >= 1"},
		{"bad gen range", `{"graph":"fig1a","protocol":"bw","inputGen":{"kind":"uniform","lo":2,"hi":1}}`, "hi 1 < lo 2"},
		{"negative knob", `{"graph":"fig1a","protocol":"bw","f":-2}`, "non-negative"},
		{"negative eps", `{"graph":"fig1a","protocol":"bw","eps":-0.5}`, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := repro.ParseScenario([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted: %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}
}

// TestEngineNamesInlineOnly: the list bench/micro.go's parallelSpeedup
// still reads names the one delivery loop and nothing else.
func TestEngineNamesInlineOnly(t *testing.T) {
	if got := repro.EngineNames(); !reflect.DeepEqual(got, []string{"inline"}) {
		t.Fatalf("EngineNames() = %v, want [inline]", got)
	}
}

// TestScenarioRoundTripTraceIdentical is the API's reproducibility
// guarantee: a scenario serialized to JSON, decoded, and re-run produces a
// byte-identical Result.Trace — on the bare machines, on the goroutine
// reference and under every registered policy.
func TestScenarioRoundTripTraceIdentical(t *testing.T) {
	policies := []*repro.PolicySpec{
		nil, // default random
		{Name: "random"},
		{Name: "fifo"},
		{Name: "lifo"},
		{Name: "bounded", Params: map[string]float64{"bound": 6}},
	}
	runners := map[string]func(*testing.T, repro.Scenario) *repro.Result{
		"inline": func(t *testing.T, s repro.Scenario) *repro.Result {
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		"goroutine": runGoroutineRef,
	}
	for engine, run := range runners {
		for _, pol := range policies {
			name := engine + "/default"
			if pol != nil {
				name = engine + "/" + pol.Name
			}
			t.Run(name, func(t *testing.T) {
				s := repro.Scenario{
					Graph:    "fig1a",
					Protocol: "bw",
					Inputs:   []float64{0, 4, 1, 3, 2},
					F:        1, K: 4, Eps: 0.25, Seed: 23,
					Policy:      pol,
					Faults:      []repro.FaultSpec{{Node: 1, Kind: "tamper", Params: map[string]float64{"delta": 50}}},
					RecordTrace: true,
				}
				direct := run(t, s)
				if direct.Trace == "" {
					t.Fatal("no trace recorded")
				}
				data, err := s.JSON()
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := repro.ParseScenario(data)
				if err != nil {
					t.Fatal(err)
				}
				rerun := run(t, *decoded)
				if rerun.Trace != direct.Trace {
					t.Error("trace not byte-identical after JSON round-trip")
				}
				if !reflect.DeepEqual(rerun.Outputs, direct.Outputs) {
					t.Errorf("outputs drifted: %v vs %v", rerun.Outputs, direct.Outputs)
				}
			})
		}
	}
}

// TestScenarioPolicyChangesSchedule sanity-checks that the policy knob is
// real: different registered policies yield different delivery schedules on
// the same scenario.
func TestScenarioPolicyChangesSchedule(t *testing.T) {
	traces := map[string]string{}
	for _, name := range []string{"random", "fifo", "lifo"} {
		s := repro.Scenario{
			Graph: "clique:4", Protocol: "bw",
			Inputs: []float64{0, 1, 2, 3},
			F:      1, K: 3, Eps: 0.25, Seed: 9,
			Policy:      &repro.PolicySpec{Name: name},
			RecordTrace: true,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || !res.ValidityOK {
			t.Errorf("%s: BW failed to converge: %+v", name, res)
		}
		traces[name] = res.Trace
	}
	if traces["fifo"] == traces["lifo"] || traces["random"] == traces["fifo"] {
		t.Error("distinct policies produced identical schedules")
	}
}

func TestScenarioRunBatch(t *testing.T) {
	s := repro.Scenario{
		Graph: "fig1a", Protocol: "bw",
		InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 4},
		F:        1, K: 4, Eps: 0.25, Seed: 100, Seeds: 4,
	}
	parallel, err := s.RunBatch(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != 4 {
		t.Fatalf("batch returned %d results", len(parallel))
	}
	sequential, err := s.RunBatch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parallel {
		if !parallel[i].Converged {
			t.Errorf("seed %d did not converge", 100+i)
		}
		if !reflect.DeepEqual(parallel[i].Outputs, sequential[i].Outputs) {
			t.Errorf("seed %d: parallel and sequential outputs differ", 100+i)
		}
	}
	// Seeds <= 1 means one run.
	single := s
	single.Seeds = 0
	if res, err := single.RunBatch(context.Background(), 0); err != nil || len(res) != 1 {
		t.Errorf("Seeds=0 batch: %d results, err %v", len(res), err)
	}
}

// TestPlanSharedAcrossBatch: the runs of a batch build their own Protos,
// and the ones running at once find BW's plan — path tables, node contexts,
// doors and covers, all built lazily — through one cache, on a graph no
// other test of the package runs, so the two workers race to build it. Run
// under -race; the outputs equal a sequential batch's.
func TestPlanSharedAcrossBatch(t *testing.T) {
	s := repro.Scenario{
		Graph: "wheel:5", Protocol: "bw",
		InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 3},
		F:        1, K: 2, Eps: 0.6, Seed: 1, Seeds: 4,
	}
	parallel, err := s.RunBatch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := s.RunBatch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parallel {
		if !parallel[i].Converged || !reflect.DeepEqual(parallel[i].Outputs, sequential[i].Outputs) || parallel[i].Steps != sequential[i].Steps {
			t.Errorf("seed %d: parallel run %+v, sequential %+v", s.Seed+int64(i), parallel[i].Outputs, sequential[i].Outputs)
		}
	}
}

func TestScenarioObserver(t *testing.T) {
	s := repro.Scenario{
		Graph: "fig1a", Protocol: "bw",
		Inputs: []float64{0, 4, 1, 3, 2},
		F:      1, K: 4, Eps: 0.25, Seed: 7,
	}
	var delivers, rounds int
	res, err := s.RunObserved(repro.ObserverFunc(func(e repro.Event) {
		switch e.Type {
		case repro.EventDeliver:
			delivers++
		case repro.EventRound:
			rounds++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if delivers != res.Steps {
		t.Errorf("observed %d deliveries, result says %d", delivers, res.Steps)
	}
	if rounds == 0 {
		t.Error("no per-round snapshots streamed")
	}
	// The observer must not perturb the run.
	bare, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Outputs, res.Outputs) || bare.Steps != res.Steps {
		t.Error("observer perturbed the execution")
	}
}

func TestJSONLObserver(t *testing.T) {
	var sb strings.Builder
	obs, flushErr := repro.JSONLObserver(&sb)
	s := repro.Scenario{
		Graph: "clique:4", Protocol: "bw",
		Inputs: []float64{0, 1, 2, 3}, F: 1, K: 3, Eps: 0.25, Seed: 5,
	}
	res, err := s.RunObserved(obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := flushErr(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < res.Steps {
		t.Fatalf("%d JSONL lines for %d deliveries", len(lines), res.Steps)
	}
	sawRound := false
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		switch rec["type"] {
		case "deliver":
			if _, ok := rec["kind"].(string); !ok {
				t.Fatalf("deliver record missing kind: %s", line)
			}
		case "round":
			sawRound = true
			if _, ok := rec["value"].(float64); !ok {
				t.Fatalf("round record missing value: %s", line)
			}
		}
	}
	if !sawRound {
		t.Error("no round records in JSONL stream")
	}
}

// TestJSONLObserverSharedAcrossSeeds pins the observer's goroutine-safety:
// one JSONLObserver fanned across parallel RunSeeds runs must neither race
// (the CI -race run) nor interleave mid-record.
func TestJSONLObserverSharedAcrossSeeds(t *testing.T) {
	var sb strings.Builder
	obs, flushErr := repro.JSONLObserver(&sb)
	opts := repro.Options{F: 1, K: 4, Eps: 0.25, Seed: 1, Observer: obs}
	results, err := repro.RunSeeds(context.Background(), protocol(t, "bw"), repro.Fig1a(), []float64{0, 4, 1, 3, 2}, opts, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := flushErr(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, res := range results {
		total += res.Steps
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < total {
		t.Fatalf("%d JSONL lines for %d total deliveries", len(lines), total)
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d corrupted by interleaving: %q", i, line)
		}
	}
}

// TestOptionsNormalizeNegativeInputs is the regression test for the K
// default: with all-negative inputs, K must cover the input magnitudes
// (max |x|), not collapse to the floor of 1 via max(x).
func TestOptionsNormalizeNegativeInputs(t *testing.T) {
	g := repro.Fig1a()
	inputs := []float64{-8, -2, -6, -4, -7}
	res, err := protocol(t, "bw")(g, inputs, repro.Options{F: 1, Eps: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.ValidityOK {
		t.Errorf("all-negative inputs with defaulted K: %+v", res)
	}
	for _, x := range res.Outputs {
		if x < -8 || x > -2 {
			t.Errorf("output %g outside honest range [-8,-2]", x)
		}
	}
}

func TestProtocolRegistry(t *testing.T) {
	names := repro.Protocols()
	for _, want := range []string{"aad", "bw", "crashapprox", "iterative"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Protocols() = %v, missing %q", names, want)
		}
	}
	if _, err := repro.ProtocolByName("bw"); err != nil {
		t.Error(err)
	}
	if _, err := repro.ProtocolByName("nope"); err == nil ||
		!strings.Contains(err.Error(), "valid values are") {
		t.Errorf("unknown protocol error unhelpful: %v", err)
	}
	if len(repro.Policies()) < 4 {
		t.Errorf("Policies() = %v", repro.Policies())
	}
}

func TestFaultKindNames(t *testing.T) {
	kinds := repro.FaultKinds()
	for _, want := range []string{
		"silent", "crash", "extreme", "equivocate", "tamper", "noise",
		"delayedequiv", "split", "replay",
	} {
		found := false
		for _, n := range kinds {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("FaultKinds() = %v, missing %q", kinds, want)
		}
	}
	// Every registered kind must decode in a scenario fault entry.
	for _, name := range kinds {
		s := repro.Scenario{Graph: "fig1a", Protocol: "bw",
			Faults: []repro.FaultSpec{{Node: 1, Kind: name}}}
		if err := s.Validate(); err != nil {
			t.Errorf("kind %q rejected: %v", name, err)
		}
	}
}

// TestScenarioLegacyScalarRejected: the scalar "param" form is gone from the
// fault entry and from composed layers alike, and the error says what to
// write instead — json's own `unknown field "param"` would not.
func TestScenarioLegacyScalarRejected(t *testing.T) {
	for _, fault := range []string{
		`{"node":1,"kind":"crash","param":10}`,
		`{"node":1,"kind":"tamper","compose":[{"kind":"noise","param":3}]}`,
	} {
		doc := `{"graph":"fig1a","protocol":"bw","faults":[` + fault + `]}`
		_, err := repro.ParseScenario([]byte(doc))
		if err == nil {
			t.Fatalf("%s decoded", fault)
		}
		for _, want := range []string{`"params"`, "abacsim -list"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %s", fault, err, want)
			}
		}
	}
}

// TestScenarioExplicitZeroScalar: a scalar 0 is refused like any other
// scalar, and the explicit zero it used to spell survives in the params
// map — crash with after=0 is crash on the first delivery, not a silent
// revert to the default of 20.
func TestScenarioExplicitZeroScalar(t *testing.T) {
	const head = `{"graph":"fig1a","protocol":"bw","inputs":[0,4,1,3,2],"f":1,"k":4,"eps":0.25,"seed":3,
		"faults":[{"node":1,"kind":"crash",`
	if _, err := repro.ParseScenario([]byte(head + `"param":0}]}`)); err == nil || !strings.Contains(err.Error(), `"params"`) {
		t.Fatalf(`"param": 0: %v`, err)
	}
	s, err := repro.ParseScenario([]byte(head + `"params":{"after":0}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"after": 0`) {
		t.Errorf("explicit zero lost in canonicalization:\n%s", data)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.ValidityOK {
		t.Errorf("crash-at-first-delivery run: %+v", res)
	}
}

// TestDocumentedScenariosDecode: every scenario the repo shows a reader —
// the files under examples/ and each fenced JSON object in README.md that
// carries a "graph" key — goes through ParseScenario, so a spelling the
// loader stops accepting cannot survive in the documentation.
func TestDocumentedScenariosDecode(t *testing.T) {
	docs := map[string][]byte{}
	files, err := filepath.Glob("examples/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/*.json: %v, %v", files, err)
	}
	for _, f := range files {
		if docs[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	fences := strings.Split(string(readme), "```json\n")[1:]
	for i, rest := range fences {
		body, _, closed := strings.Cut(rest, "```")
		var obj map[string]json.RawMessage
		if !closed || json.Unmarshal([]byte(body), &obj) != nil {
			t.Errorf("README.md json fence %d is not one JSON object:\n%s", i, body)
		} else if _, isScenario := obj["graph"]; isScenario {
			docs[fmt.Sprintf("README.md fence %d", i)] = []byte(body)
		}
	}
	if len(docs) == len(files) {
		t.Error("no scenario found in README.md's json fences")
	}
	for name, doc := range docs {
		if _, err := repro.ParseScenario(doc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestScenarioRejectsNonFiniteRange: a NaN k or eps compares false against
// every bound, so it used to slip past validation and run zero rounds — no
// message sent, every input returned as its output. Infinite ones are
// refused with them.
func TestScenarioRejectsNonFiniteRange(t *testing.T) {
	for _, protocol := range []string{"crashapprox", "aad", "bw", "iterative"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, s := range []repro.Scenario{
				{Graph: "clique:4", Protocol: protocol, K: bad},
				{Graph: "clique:4", Protocol: protocol, Eps: bad},
			} {
				if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
					t.Errorf("%s k=%v eps=%v: validation says %v", protocol, s.K, s.Eps, err)
				}
			}
		}
	}
}

// TestFaultParamsSpellNonFinite: a forged value may be NaN or ±Inf, which
// JSON numbers cannot carry, so a scenario file spells those three as
// strings; any other string is refused at decode.
func TestFaultParamsSpellNonFinite(t *testing.T) {
	s := repro.Scenario{Graph: "fig1a", Protocol: "bw", Faults: []repro.FaultSpec{
		{Node: 1, Kind: "extreme", Params: repro.FaultParams{"value": math.NaN()}},
		{Node: 2, Kind: "split", Params: repro.FaultParams{"lo": math.Inf(-1), "hi": math.Inf(1)}},
	}}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"value": "NaN"`, `"lo": "-Inf"`, `"hi": "+Inf"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("canonical form lacks %s:\n%s", want, data)
		}
	}
	back, err := repro.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if p := back.Faults[1].Params; !math.IsNaN(back.Faults[0].Params["value"]) || !math.IsInf(p["lo"], -1) || !math.IsInf(p["hi"], 1) {
		t.Errorf("decoded %+v", back.Faults)
	}
	for _, bad := range []string{`"nan"`, `"Inf"`, `"1"`, `true`} {
		doc := `{"graph":"fig1a","protocol":"bw","faults":[{"node":1,"kind":"extreme","params":{"value":` + bad + `}}]}`
		if _, err := repro.ParseScenario([]byte(doc)); err == nil || !strings.Contains(err.Error(), "not a number") {
			t.Errorf("value %s: %v", bad, err)
		}
	}
}

// TestScenarioRejectsNonFiniteInputs: a NaN or infinite input, listed or
// generated, is refused by name of its vertex — it used to validate and
// then fail Scenario.JSON, which cannot spell it. Finite inputs still
// round-trip.
func TestScenarioRejectsNonFiniteInputs(t *testing.T) {
	for _, tc := range []struct {
		s      repro.Scenario
		vertex string
	}{
		{repro.Scenario{Inputs: []float64{math.NaN(), 1, 2, 3}}, "vertex 0"},
		{repro.Scenario{Inputs: []float64{0, 1, math.Inf(-1), 3}}, "vertex 2"},
		{repro.Scenario{InputGen: &repro.InputGenSpec{Kind: "const", Value: math.Inf(1)}}, "vertex 0"},
		{repro.Scenario{InputGen: &repro.InputGenSpec{Kind: "linear", Scale: 1e308}}, "vertex 2"},
	} {
		s := tc.s
		s.Graph, s.Protocol = "clique:4", "iterative"
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not finite") || !strings.Contains(err.Error(), tc.vertex) {
			t.Errorf("inputs %v, inputGen %+v: validation says %v, want it to name %s", s.Inputs, s.InputGen, err, tc.vertex)
		}
	}
	for _, s := range []repro.Scenario{
		{Graph: "clique:4", Protocol: "iterative", Inputs: []float64{-1e308, 0, 0.5, 1e308}},
		{Graph: "clique:4", Protocol: "iterative", InputGen: &repro.InputGenSpec{Kind: "linear", Scale: 1e307}},
	} {
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := repro.ParseScenario(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*back, s) {
			t.Errorf("round trip changed %+v into %+v", s, *back)
		}
	}
}

// TestNamedSharedAcrossBatches: batches of one scenario running at once,
// each over its own workers, and runs beside them all read one graph, built
// once on a spec no other test of the package uses. The runs record the
// graph they are handed; all of them are held, so a second build would show
// as a second pointer. Run under -race; the outputs equal a sequential
// batch's.
func TestNamedSharedAcrossBatches(t *testing.T) {
	s := repro.Scenario{
		Graph: "circulant:11:1,2,5", Protocol: "iterative",
		InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 3},
		F:        1, K: 2, Eps: 0.5, Seed: 1, Seeds: 3,
	}
	iterative, err := repro.ProtocolBuilder(s.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var graphs []*repro.Graph
	record := func(g *repro.Graph, inputs []float64, opts repro.Options) (repro.HandlerFactory, error) {
		mu.Lock()
		graphs = append(graphs, g)
		mu.Unlock()
		return iterative(g, inputs, opts)
	}
	batches := make([][]*repro.Result, 3)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RunWith(record); err != nil {
				t.Error(err)
			}
			var err error
			if batches[i], err = s.RunBatch(context.Background(), 2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	sequential, err := s.RunBatch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		for i, res := range batch {
			if !res.Decided || !reflect.DeepEqual(res.Outputs, sequential[i].Outputs) || res.Steps != sequential[i].Steps {
				t.Errorf("seed %d: concurrent run %+v, sequential %+v", s.Seed+int64(i), res.Outputs, sequential[i].Outputs)
			}
		}
	}
	if len(graphs) != len(batches) {
		t.Fatalf("%d runs recorded, want %d", len(graphs), len(batches))
	}
	for i, g := range graphs {
		if g != graphs[0] {
			t.Errorf("run %d got another graph than run 0: the spec was built more than once", i)
		}
	}
}

// TestNamedSharedReleased: the graph cache keeps a graph while a caller
// holds it, and the most recent one besides — no more. After runs on
// cycle:64 and then on fig1a, and a collection, the cycle is gone and
// fig1a, the most recent, is not; nothing a run leaves behind holds either.
func TestNamedSharedReleased(t *testing.T) {
	run := func(spec string) weak.Pointer[repro.Graph] {
		s := repro.Scenario{Graph: spec, Protocol: "bw", F: repro.FZero, K: 1, Eps: 0.6, Seed: 1}
		g, _, err := s.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatalf("%s: not every vertex decided", spec)
		}
		return weak.Make(g)
	}
	cycle := run("cycle:64")
	fig := run("fig1a")
	runtime.GC()
	if cycle.Value() != nil {
		t.Error("cycle:64 outlived its runs and the next graph's")
	}
	if fig.Value() == nil {
		t.Error("the most recently used graph was released")
	}
}

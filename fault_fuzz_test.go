package repro_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro"
)

// legacyScalarSeed spells the removed scalar form; FuzzFaultSpec asserts it
// stops at decode, with the message that says what to write.
const legacyScalarSeed = `{"node":1,"kind":"crash","param":10}`

// FuzzFaultSpec fuzzes the FaultSpec decode path: arbitrary JSON documents
// are decoded as a scenario fault entry and validated. Three properties
// are pinned: validation never panics, whatever the bytes; a spec that
// validates must canonicalize (Scenario.JSON); and the canonical form must
// re-parse to a scenario that still validates — decode/encode is a closed
// loop over the valid set.
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		legacyScalarSeed,
		`{"node":1,"kind":"silent"}`,
		`{"node":1,"kind":"crash","params":{"after":10}}`,
		`{"node":2,"kind":"crash","params":{"after":5,"finalSends":2}}`,
		`{"node":3,"kind":"extreme","params":{"value":1e9}}`,
		`{"node":1,"kind":"tamper","params":{"delta":50},"compose":[{"kind":"noise","params":{"amp":3}}]}`,
		`{"node":4,"kind":"split","params":{"lo":-1,"hi":1,"pivot":2}}`,
		`{"node":1,"kind":"replay","params":{"prob":0.5},"compose":[{"kind":"replay"}]}`,
		`{"node":0,"kind":"gremlin"}`,
		`{"node":-1,"kind":"silent"}`,
		`{"node":1,"kind":"crash","params":{"after":2,"finalSends":-1}}`,
		`{"kind":"noise"}`,
		`{}`,
		`[]`,
		`{"node":1e99,"kind":"silent"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var fs repro.FaultSpec
		if err := dec.Decode(&fs); err != nil {
			if string(data) == legacyScalarSeed {
				doc := `{"graph":"fig1a","protocol":"bw","faults":[` + legacyScalarSeed + `]}`
				if _, err := repro.ParseScenario([]byte(doc)); err == nil || !strings.Contains(err.Error(), `"params"`) {
					t.Fatalf("legacy scalar form: %v", err)
				}
			}
			return // not a fault spec; nothing to check
		}
		s := repro.Scenario{
			Graph:    "fig1a",
			Protocol: "bw",
			Faults:   []repro.FaultSpec{fs},
		}
		if err := s.Validate(); err != nil {
			return // invalid specs must be rejected, not crash — done
		}
		canonical, err := s.JSON()
		if err != nil {
			t.Fatalf("valid spec failed to canonicalize: %+v: %v", fs, err)
		}
		back, err := repro.ParseScenario(canonical)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %s: %v", canonical, err)
		}
		if len(back.Faults) != 1 || back.Faults[0].Kind != fs.Kind {
			t.Fatalf("canonical round-trip changed the fault: %+v vs %+v", back.Faults, fs)
		}
	})
}

// FuzzFaultParam sets one float64 on one param of one fault kind or
// link-fault kind, the kind and param picked by index over FaultKinds then
// LinkFaultKinds and over each kind's sorted param names. It reaches the
// values no JSON document spells — NaN, ±Inf — which FuzzFaultSpec cannot.
// Pinned: validation never panics; a scenario that validates canonicalizes
// (Scenario.JSON); and the canonical form re-parses to the same value, so
// no validating param is one a scenario file cannot record.
func FuzzFaultParam(f *testing.F) {
	faultKinds, linkKinds := repro.FaultKinds(), repro.LinkFaultKinds()
	for k := range len(faultKinds) + len(linkKinds) {
		for p, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2.5, -3, 1e300} {
			f.Add(uint(k), uint(p), v)
		}
	}
	f.Fuzz(func(t *testing.T, kindIdx, paramIdx uint, v float64) {
		s := repro.Scenario{Graph: "clique:4", Protocol: "bw"}
		k := int(kindIdx % uint(len(faultKinds)+len(linkKinds)))
		var (
			defs   map[string]float64
			params map[string]float64
			err    error
		)
		if k < len(faultKinds) {
			fs := repro.FaultSpec{Node: 1, Kind: faultKinds[k], Params: repro.FaultParams{}}
			defs, _, err = repro.FaultDefaults(fs.Kind)
			s.Faults, params = []repro.FaultSpec{fs}, fs.Params
		} else {
			lf := repro.LinkFault{Kind: linkKinds[k-len(faultKinds)], Params: map[string]float64{}}
			if lf.Kind == "partition" {
				lf.Nodes = []int{1}
			} else {
				lf.Edges = [][2]int{{0, 1}}
			}
			defs, _, err = repro.LinkFaultDefaults(lf.Kind)
			s.LinkFaults, params = []repro.LinkFault{lf}, lf.Params
		}
		if err != nil {
			t.Fatal(err)
		}
		names := slices.Sorted(maps.Keys(defs))
		var name string
		if len(names) > 0 {
			name = names[int(paramIdx%uint(len(names)))]
			params[name] = v
		}
		if s.Validate() != nil {
			return // invalid values must be rejected, not crash — done
		}
		canonical, err := s.JSON()
		if err != nil {
			t.Fatalf("valid scenario failed to canonicalize: %s=%v: %v", name, v, err)
		}
		back, err := repro.ParseScenario(canonical)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %s: %v", canonical, err)
		}
		if name == "" {
			return
		}
		var got float64
		if len(back.Faults) == 1 {
			got = back.Faults[0].Params[name]
		} else {
			got = back.LinkFaults[0].Params[name]
		}
		if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Fatalf("%s=%v came back as %v from %s", name, v, got, canonical)
		}
	})
}

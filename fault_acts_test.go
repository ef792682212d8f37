package repro_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro"
)

// faultActsCells are the protocols' reference cells: vertex 1 is the
// faulty one, the schedule fifo at seed 3.
var faultActsCells = map[string]repro.Scenario{
	"bw":          {Graph: "fig1a", Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.25},
	"aad":         {Graph: "clique:5", Inputs: []float64{0, 3, 1, 2, 2}, F: 1, K: 3, Eps: 0.25},
	"iterative":   {Graph: "clique:5", Inputs: []float64{0, 3, 1, 2, 2}, F: 1, K: 3, Eps: 0.25},
	"crashapprox": {Graph: "fig1a", Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.25},
	"aba":         {Graph: "clique:4", Inputs: []float64{1, 1, 1, 0}, F: 1, K: 1, Eps: 0.25},
	"acs":         {Graph: "clique:4", Inputs: []float64{0, 3, 1, 2}, F: 1, K: 3, Eps: 0.25},
}

// faultActsParams are the pairs whose default params leave the vertex
// honest on its reference cell: the run is over before a crash after 20
// deliveries (iterative, aba), and acs's vertex originates 3 values, never
// more than delayedequiv's 6 honest ones.
var faultActsParams = map[[2]string]repro.FaultParams{
	{"iterative", "crash"}:  {"after": 0},
	{"aba", "crash"}:        {"after": 0},
	{"acs", "delayedequiv"}: {"after": 0},
}

// faultyTraffic runs the named protocol's reference cell with vertex 1 running kind
// (none when kind is "") through the protocol's RunFunc, which arms the
// adversary without Scenario's per-protocol check, and returns every
// payload vertex 1 got delivered, in delivery order.
func faultyTraffic(t *testing.T, name, kind string) string {
	t.Helper()
	s := faultActsCells[name]
	g, err := repro.NamedGraph(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	opts := repro.Options{F: s.F, K: s.K, Eps: s.Eps, Seed: 3, Policy: "fifo",
		Observer: repro.ObserverFunc(func(e repro.Event) {
			if e.Type == repro.EventDeliver && e.Message.From == 1 {
				fmt.Fprintf(&b, "%d %v\n", e.Message.To, e.Message.Payload)
			}
		})}
	if kind != "" {
		opts.Faults = []repro.FaultSpec{{Node: 1, Kind: kind, Params: faultActsParams[[2]string{name, kind}]}}
	}
	if _, err := protocol(t, name)(g, s.Inputs, opts); err != nil {
		t.Fatalf("%s %s: %v", name, kind, err)
	}
	return b.String()
}

// TestEveryFaultKindActs is the fence on the per-protocol fault lists:
// every (protocol, kind) pair a scenario accepts changes what the faulty
// vertex sends on the protocol's reference cell, and every pair it refuses
// would leave that traffic as an honest run's — so no kind that validates
// falls back to honest behavior, and no list refuses a kind that acts.
// The one refusal that is not for transparency is crashapprox's replay:
// a crash-model protocol accepts crashes only.
func TestEveryFaultKindActs(t *testing.T) {
	for _, protocol := range slices.Sorted(maps.Keys(faultActsCells)) {
		honest := faultyTraffic(t, protocol, "")
		for _, kind := range repro.FaultKinds() {
			s := faultActsCells[protocol]
			s.Protocol = protocol
			s.Faults = []repro.FaultSpec{{Node: 1, Kind: kind, Params: faultActsParams[[2]string{protocol, kind}]}}
			err := s.Validate()
			acts := faultyTraffic(t, protocol, kind) != honest
			switch {
			case err == nil && !acts:
				t.Errorf("%s accepts %s, which leaves vertex 1's traffic honest", protocol, kind)
			case err != nil && (!strings.Contains(err.Error(), fmt.Sprintf("%q", protocol)) || !strings.Contains(err.Error(), fmt.Sprintf("%q", kind))):
				t.Errorf("%s refuses %s with an error naming neither: %v", protocol, kind, err)
			case err != nil && acts && (protocol != "crashapprox" || kind != "replay"):
				t.Errorf("%s refuses %s, which acts on it", protocol, kind)
			}
		}
	}
}

// TestRefusedFaultEveryFace: a pair the protocol refuses, as the base kind
// or as a composed layer, fails on the simulator, on the loopback cluster
// and in the service's instance factory alike, naming the kind and the
// protocol.
func TestRefusedFaultEveryFace(t *testing.T) {
	for _, s := range []repro.Scenario{
		{Graph: "clique:5", Protocol: "iterative", F: 1, Faults: []repro.FaultSpec{{Node: 1, Kind: "tamper"}}},
		{Graph: "fig1a", Protocol: "crashapprox", F: 1, Faults: []repro.FaultSpec{{Node: 1, Kind: "crash",
			Compose: []repro.Mutation{{Kind: "noise"}}}}},
	} {
		kind := s.Faults[0].Kind
		if len(s.Faults[0].Compose) > 0 {
			kind = s.Faults[0].Compose[0].Kind
		}
		want := fmt.Sprintf("protocol %q does not accept fault kind %q", s.Protocol, kind)
		_, simErr := s.Run()
		_, liveErr := s.RunOn(context.Background(), repro.RuntimeLoopback)
		_, facErr := repro.NewInstanceFactory(s)
		for face, err := range map[string]error{"sim": simErr, "loopback": liveErr, "factory": facErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s on %s: got %v, want an error containing %s", s.Protocol, kind, face, err, want)
			}
		}
	}
}

// TestVectorValidityBySlots: a vector decision is judged by its slots. An
// extreme acs vertex lands 1e9 in the agreed vector, pulling the mean far
// outside the honest inputs, and the run still reads valid; one honest
// slot doctored in one honest vector reads invalid.
func TestVectorValidityBySlots(t *testing.T) {
	s := repro.Scenario{Graph: "clique:4", Protocol: "acs", Inputs: []float64{0, 3, 1, 2}, F: 1, K: 3, Eps: 0.25, Seed: 3,
		Faults: []repro.FaultSpec{{Node: 3, Kind: "extreme"}}}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.ValidityOK {
		t.Fatalf("extreme acs run: decided %v, valid %v, vectors %v", res.Decided, res.ValidityOK, res.Vectors)
	}
	for v, vec := range res.Vectors {
		if vec[3] != 1e9 {
			t.Fatalf("vertex %d's vector %v lacks the forged slot; the check is vacuous", v, vec)
		}
	}
	build, err := repro.ProtocolBuilder("acs")
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.RunWith(func(g *repro.Graph, inputs []float64, opts repro.Options) (repro.HandlerFactory, error) {
		fac, err := build(g, inputs, opts)
		return func(id int) (repro.Handler, error) {
			h, err := fac(id)
			if id == 0 && err == nil {
				h = doctoredSlot{h.(vectorHandler)}
			}
			return h, err
		}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.ValidityOK {
		t.Fatalf("doctored honest slot: decided %v, valid %v, vectors %v", res.Decided, res.ValidityOK, res.Vectors)
	}
}

type vectorHandler interface {
	repro.Handler
	Vector() map[int]float64
}

// doctoredSlot reports its machine's vector with the lowest honest
// origin's slot (origins 0-2 are honest) moved off that origin's input.
type doctoredSlot struct{ vectorHandler }

func (d doctoredSlot) Vector() map[int]float64 {
	vec := d.vectorHandler.Vector()
	for o := range 3 {
		if _, ok := vec[o]; ok {
			vec[o]++
			break
		}
	}
	return vec
}

package repro_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro"
)

// simOnly is a protocol registered without a live-runtime builder, for
// TestProtocolBuilderErrors. It is registered once per test binary, so the
// suite passes under -count=2 and in any -shuffle order;
// TestClusterConformance skips it by name.
const simOnly = "zz-conformance-sim-only"

func init() {
	iterative, err := repro.ProtocolByName("iterative")
	if err != nil {
		panic(err)
	}
	repro.Register(simOnly, iterative)
}

// conformanceScenarios maps every registered protocol to a scenario whose
// simulator run is known to decide, converge and respect validity. The
// cross-runtime conformance test requires an entry for each registered
// protocol: adding a protocol without one fails the test, which is the
// point — a protocol is not done until it runs on the live runtime.
func conformanceScenarios() map[string]repro.Scenario {
	return map[string]repro.Scenario{
		"bw": {
			Name: "conformance-bw", Graph: "fig1a", Protocol: "bw",
			Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.25, Seed: 7,
			Faults: []repro.FaultSpec{{Node: 1, Kind: "silent"}},
		},
		"aad": {
			Name: "conformance-aad", Graph: "clique:4", Protocol: "aad",
			Inputs: []float64{0, 3, 1, 2}, F: 1, K: 3, Eps: 0.25, Seed: 7,
			Faults: []repro.FaultSpec{{Node: 3, Kind: "silent"}},
		},
		"crashapprox": {
			Name: "conformance-crash", Graph: "fig1a", Protocol: "crashapprox",
			Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.25, Seed: 7,
			Faults: []repro.FaultSpec{{Node: 1, Kind: "silent"}},
		},
		"iterative": {
			Name: "conformance-iter", Graph: "clique:5", Protocol: "iterative",
			Inputs: []float64{0, 3, 1, 2, 2}, F: 1, K: 3, Eps: 0.25, Seed: 7,
			Faults: []repro.FaultSpec{{Node: 4, Kind: "silent"}},
		},
		// Exact tier. ABA: the honest nodes unanimously propose 1, so the
		// binding-value rule pins the decision to 1 whatever the silent
		// node withholds. ACS: the faulty input (2) lies inside the honest
		// input range [0,3], so the subset mean respects validity whether
		// or not node 3's broadcast makes the subset.
		"aba": {
			Name: "conformance-aba", Graph: "clique:4", Protocol: "aba",
			Inputs: []float64{1, 1, 1, 0}, F: 1, K: 1, Eps: 0.25, Seed: 7,
			Faults: []repro.FaultSpec{{Node: 3, Kind: "silent"}},
		},
		"acs": {
			Name: "conformance-acs", Graph: "clique:4", Protocol: "acs",
			Inputs: []float64{0, 3, 1, 2}, F: 1, K: 3, Eps: 0.25, Seed: 7,
			Faults: []repro.FaultSpec{{Node: 3, Kind: "silent"}},
		},
	}
}

// assertGuarantees applies the protocol acceptance criteria shared by both
// runtimes: termination, validity and ε-agreement.
func assertGuarantees(t *testing.T, label string, res *repro.Result, eps float64) {
	t.Helper()
	if !res.Decided {
		t.Fatalf("%s: honest nodes did not all decide", label)
	}
	if !res.ValidityOK {
		t.Fatalf("%s: outputs %v violate validity", label, res.Outputs)
	}
	if !res.Converged {
		t.Fatalf("%s: spread %g >= eps %g", label, res.Spread, eps)
	}
	if len(res.Outputs) != res.Honest.Count() {
		t.Fatalf("%s: %d outputs for %d honest nodes", label, len(res.Outputs), res.Honest.Count())
	}
}

// TestClusterConformance is the headline invariant of the live runtime:
// for every registered protocol, a Scenario run on the loopback cluster
// passes the same validity and ε-agreement assertions as its simulator
// run. The schedules differ — the simulator replays a seeded adversarial
// order, the cluster delivers whatever the transport produces — but both
// are legal asynchronous executions, so the guarantees must hold on both.
func TestClusterConformance(t *testing.T) {
	scenarios := conformanceScenarios()
	for _, proto := range repro.Protocols() {
		s, ok := scenarios[proto]
		if proto == simOnly {
			continue
		}
		if !ok {
			t.Fatalf("registered protocol %q has no conformance scenario; add one to conformanceScenarios", proto)
		}
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			simRes, err := s.RunOn(context.Background(), repro.RuntimeSim)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			assertGuarantees(t, "sim", simRes, s.Eps)

			clusterRes, err := s.RunOn(context.Background(), repro.RuntimeLoopback)
			if err != nil {
				t.Fatalf("loopback run: %v", err)
			}
			assertGuarantees(t, "loopback", clusterRes, s.Eps)

			if clusterRes.Steps == 0 || clusterRes.MessagesSent == 0 {
				t.Fatalf("loopback run reported no traffic: %+v", clusterRes)
			}
		})
	}
}

// TestClusterTCPConformance runs full scenarios over real TCP sockets: BW
// on Figure 1(a), and ACS and AAD (the protocols the service tier serves
// over the same Mux) on a clique, each with a silent Byzantine node.
func TestClusterTCPConformance(t *testing.T) {
	for _, proto := range []string{"bw", "acs", "aad"} {
		s := conformanceScenarios()[proto]
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			res, err := s.RunOn(context.Background(), repro.RuntimeTCP)
			if err != nil {
				t.Fatal(err)
			}
			assertGuarantees(t, "tcp", res, s.Eps)
		})
	}
}

// TestClusterAdversaryConformance mirrors the protocol conformance suite
// for the adversary layer: every registered adversary strategy, with its
// default params, must pass the same termination/validity/ε-agreement
// assertions on the loopback cluster as on the simulator. Adding a
// strategy automatically adds its cross-runtime check.
func TestClusterAdversaryConformance(t *testing.T) {
	for _, kind := range repro.FaultKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			s := repro.Scenario{
				Name: "adv-conformance-" + kind, Graph: "fig1a", Protocol: "bw",
				Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.25, Seed: 13,
				Faults: []repro.FaultSpec{{Node: 1, Kind: kind}},
			}
			simRes, err := s.RunOn(context.Background(), repro.RuntimeSim)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			assertGuarantees(t, "sim/"+kind, simRes, s.Eps)

			clusterRes, err := s.RunOn(context.Background(), repro.RuntimeLoopback)
			if err != nil {
				t.Fatalf("loopback run: %v", err)
			}
			assertGuarantees(t, "loopback/"+kind, clusterRes, s.Eps)
		})
	}
}

// TestBWNonFiniteSender: one vertex flooding NaN or an infinity — as its own
// value, or in every value it relays and every COMPLETE entry — is a
// Byzantine vertex inside the f budget. NaN ≠ NaN, so a machine that stored
// it marked every thread that saw the value inconsistent and waited forever
// on clauses wanting it: no honest vertex decided, on either runtime. BW
// drops such messages at the door (DESIGN.md fidelity note 12) and decides
// as it does when the vertex is silent about them.
func TestBWNonFiniteSender(t *testing.T) {
	for _, fault := range []repro.FaultSpec{
		{Node: 1, Kind: "extreme", Params: map[string]float64{"value": math.NaN()}},
		{Node: 3, Kind: "extreme", Params: map[string]float64{"value": math.Inf(-1)}},
		{Node: 1, Kind: "tamper", Params: map[string]float64{"delta": math.NaN()}},
	} {
		s := repro.Scenario{
			Graph: "fig1a", Protocol: "bw", Inputs: []float64{0, 4, 1, 3, 2},
			F: 1, K: 4, Eps: 0.25, Seed: 5, Faults: []repro.FaultSpec{fault},
		}
		for _, runtime := range []string{repro.RuntimeSim, repro.RuntimeLoopback} {
			t.Run(fmt.Sprintf("%s/%d:%s=%v", runtime, fault.Node, fault.Kind, fault.Params), func(t *testing.T) {
				t.Parallel()
				res, err := s.RunOn(context.Background(), runtime)
				if err != nil {
					t.Fatal(err)
				}
				assertGuarantees(t, runtime, res, s.Eps)
			})
		}
	}
}

// attackScenario loads the acceptance-criterion artifact shipped as
// examples/attack.json (the file the README walks through): one attack
// scenario combining a multi-param node fault (composed with a second
// mutator layer) and link faults, which must run unmodified on all three
// runtimes. Delay amounts are delivery steps on the simulator and
// milliseconds on a cluster; both are finite delays, so the BW guarantees
// hold everywhere. Loading the real file keeps the tested artifact and
// the documented one from drifting apart.
func attackScenario(t *testing.T) *repro.Scenario {
	t.Helper()
	data, err := os.ReadFile("examples/attack.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := repro.ParseScenario(data)
	if err != nil {
		t.Fatalf("examples/attack.json: %v", err)
	}
	if len(s.Faults) == 0 || len(s.Faults[0].Compose) == 0 || len(s.Faults[0].Params) < 2 || len(s.LinkFaults) == 0 {
		t.Fatalf("examples/attack.json lost its multi-param composed fault or link faults: %+v", s)
	}
	return s
}

// TestAttackScenarioJSONAcrossRuntimes is the PR's acceptance criterion:
// the identical attack-scenario JSON — a multi-param composed node fault
// plus link faults — executes on "sim", "loopback" and "tcp" via
// Scenario.RunOn with conformant outcomes, and the link-fault rules
// demonstrably fire on every runtime.
func TestAttackScenarioJSONAcrossRuntimes(t *testing.T) {
	s := attackScenario(t)
	for _, runtime := range []string{repro.RuntimeSim, repro.RuntimeLoopback, repro.RuntimeTCP} {
		t.Run(runtime, func(t *testing.T) {
			res, err := s.RunOn(context.Background(), runtime)
			if err != nil {
				t.Fatalf("%s run: %v", runtime, err)
			}
			assertGuarantees(t, runtime, res, s.Eps)
			if res.LinkStats.Duplicated == 0 {
				t.Errorf("%s: link-fault duplication never fired: %+v", runtime, res.LinkStats)
			}
		})
	}
}

// TestAttackScenarioEngineByteIdentical pins determinism under the
// refactored fault layer: the attack scenario's seeded simulator runs
// produce byte-identical delivery traces, run after run and on the
// goroutine reference.
func TestAttackScenarioEngineByteIdentical(t *testing.T) {
	s := attackScenario(t)
	s.RecordTrace = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == "" {
		t.Fatal("no trace recorded")
	}
	rerun, err := s.Run()
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rerun.Trace != res.Trace {
		t.Fatal("repeated runs drifted under link faults")
	}
	if runGoroutineRef(t, *s).Trace != res.Trace {
		t.Fatal("goroutine reference trace differs under the refactored fault layer")
	}
}

// TestLinkFaultDropBreaksEdgeSim sanity-checks enforcement at the
// simulator's transport boundary: a drop rule with prob 1 on an edge
// removes every delivery on it from the trace.
func TestLinkFaultDropBreaksEdgeSim(t *testing.T) {
	s := repro.Scenario{
		Graph: "clique:4", Protocol: "bw",
		Inputs: []float64{0, 1, 2, 3}, F: 1, K: 3, Eps: 0.25, Seed: 5,
		LinkFaults:  []repro.LinkFault{{Kind: "drop", Edges: [][2]int{{0, 1}}}},
		RecordTrace: true,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkStats.Dropped == 0 {
		t.Fatal("drop rule never fired")
	}
	for _, line := range strings.Split(res.Trace, "\n") {
		if strings.Contains(line, " 0->1 ") {
			t.Fatalf("dropped edge still delivered: %q", line)
		}
	}
	// Clique:4 minus one directed edge still satisfies 3-reach for f=1
	// with no faulty node, so the run must still converge.
	if !res.Converged || !res.ValidityOK {
		t.Errorf("run under dropped edge: %+v", res)
	}
}

func TestRunOnRejectsSimOnlyKnobs(t *testing.T) {
	base := conformanceScenarios()["iterative"]
	cases := []struct {
		mutate func(*repro.Scenario)
		want   string
	}{
		{func(s *repro.Scenario) { s.Engine = "goroutine" }, "engine"},
		{func(s *repro.Scenario) { s.Policy = &repro.PolicySpec{Name: "lifo"} }, "policy"},
		{func(s *repro.Scenario) { s.RecordTrace = true }, "recordTrace"},
		{func(s *repro.Scenario) { s.Seeds = 4 }, "seed batches"},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		if _, err := s.RunOn(context.Background(), repro.RuntimeLoopback); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want error containing %q, got %v", tc.want, err)
		}
	}
	if _, err := base.RunOn(context.Background(), "warp"); err == nil || !strings.Contains(err.Error(), "unknown runtime") {
		t.Errorf("unknown runtime: got %v", err)
	}
}

func TestRunOnSimDefault(t *testing.T) {
	s := conformanceScenarios()["iterative"]
	viaEmpty, err := s.RunOn(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if viaEmpty.Spread != viaRun.Spread || viaEmpty.Steps != viaRun.Steps {
		t.Fatalf("RunOn(\"\") diverged from Run(): %+v vs %+v", viaEmpty, viaRun)
	}
}

func TestRuntimeNames(t *testing.T) {
	names := repro.RuntimeNames()
	for _, want := range []string{"loopback", "sim", "tcp"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("RuntimeNames() = %v, missing %q", names, want)
		}
	}
}

// TestProtocolBuilderErrors pins the error surface of the builder
// registry: unknown protocols and protocols registered without a builder
// both name the problem.
func TestProtocolBuilderErrors(t *testing.T) {
	if _, err := repro.ProtocolBuilder("nope"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("unknown protocol: got %v", err)
	}
	if _, err := repro.ProtocolBuilder(simOnly); err == nil ||
		!strings.Contains(err.Error(), "no live-runtime builder") {
		t.Fatalf("builderless protocol: got %v", err)
	}
	s := repro.Scenario{Graph: "clique:3", Protocol: simOnly, F: 0}
	if _, err := s.RunOn(context.Background(), repro.RuntimeLoopback); err == nil ||
		!strings.Contains(err.Error(), "no live-runtime builder") {
		t.Fatalf("RunOn without builder: got %v", err)
	}
}

package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/graph"
)

func TestCheckConditionsFig1a(t *testing.T) {
	g := repro.Fig1a()
	rep := repro.CheckConditions(g, 1)
	if !rep.OneReach || !rep.TwoReach || !rep.ThreeReach {
		t.Errorf("fig1a should satisfy all reach conditions for f=1: %+v", rep)
	}
	if !rep.CCS || !rep.CCA || !rep.BCS {
		t.Errorf("fig1a should satisfy all partition conditions for f=1: %+v", rep)
	}
	if rep.Kappa != 3 {
		t.Errorf("fig1a kappa = %d, want 3", rep.Kappa)
	}
	if rep.Witness3 != nil {
		t.Error("no witness expected when 3-reach holds")
	}
}

func TestCheckConditionsDirectedSkipsKappa(t *testing.T) {
	rep := repro.CheckConditions(graph.DirectedCycle(4), 1)
	if rep.Kappa != -1 {
		t.Errorf("directed graph kappa = %d, want -1", rep.Kappa)
	}
}

func TestCheckConditionsLargeUsesReachForPartitions(t *testing.T) {
	// n = 14 exceeds PartitionLimit; partition fields mirror reach results.
	rep := repro.CheckConditions(graph.Fig1b(), 2)
	if !rep.ThreeReach || rep.BCS != rep.ThreeReach {
		t.Errorf("fig1b f=2: %+v", rep)
	}
}

// protocol resolves a registered protocol's simulator face, the imperative
// (graph, inputs, Options) entry point under Scenario.Run.
func protocol(t testing.TB, name string) repro.RunFunc {
	t.Helper()
	run, err := repro.ProtocolByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunBWFacade(t *testing.T) {
	g := repro.Fig1a()
	res, err := protocol(t, "bw")(g, []float64{0, 4, 1, 3, 2}, repro.Options{
		F: 1, K: 4, Eps: 0.25, Seed: 5,
		Faults: []repro.FaultSpec{{Node: 2, Kind: "silent"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Converged || !res.ValidityOK {
		t.Errorf("result: %+v", res)
	}
	if res.Honest.Count() != 4 || res.Honest.Has(2) {
		t.Errorf("honest set = %s", res.Honest)
	}
	if res.MessagesSent == 0 || res.Steps == 0 {
		t.Error("missing stats")
	}
	if res.ByKind["VAL"] == 0 || res.ByKind["COMPLETE"] == 0 {
		t.Errorf("by-kind stats: %v", res.ByKind)
	}
	for v, h := range res.Histories {
		if len(h) == 0 {
			t.Errorf("node %d has empty history", v)
		}
	}
}

func TestRunBWInputMismatch(t *testing.T) {
	if _, err := protocol(t, "bw")(repro.Clique(4), []float64{1}, repro.Options{}); err == nil {
		t.Error("input length mismatch accepted")
	}
}

func TestRunAADFacade(t *testing.T) {
	g := repro.Clique(4)
	res, err := protocol(t, "aad")(g, []float64{0, 1, 2, 3}, repro.Options{F: 1, K: 3, Eps: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.ValidityOK {
		t.Errorf("AAD result: %+v", res)
	}
	if _, err := protocol(t, "aad")(graph.DirectedCycle(4), []float64{0, 1, 2, 3}, repro.Options{}); err == nil {
		t.Error("AAD on non-clique accepted")
	}
}

func TestRunCrashApproxFacade(t *testing.T) {
	g := repro.Circulant(5, 1, 2)
	res, err := protocol(t, "crashapprox")(g, []float64{0, 1, 2, 3, 4}, repro.Options{
		F: 1, K: 4, Eps: 0.2, Seed: 3,
		Faults: []repro.FaultSpec{{Node: 4, Kind: "crash", Params: map[string]float64{"after": 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.ValidityOK {
		t.Errorf("crash approx result: %+v", res)
	}
}

func TestRunIterativeFacade(t *testing.T) {
	res, err := protocol(t, "iterative")(repro.Clique(5), []float64{0, 1, 2, 3, 4}, repro.Options{
		F: 1, K: 4, Eps: 0.1, Seed: 4, Rounds: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("iterative on clique should converge: %+v", res)
	}
	// The E9 separation via the facade.
	sep, err := protocol(t, "iterative")(graph.Fig1bAnalog(),
		[]float64{0, 0, 0, 0, 1, 1, 1, 1}, repro.Options{F: 1, K: 1, Eps: 0.1, Seed: 4, Rounds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if sep.Converged {
		t.Error("iterative should not converge on the two-clique graph")
	}
}

func TestRunNecessityFacade(t *testing.T) {
	res, err := repro.RunNecessity(repro.Clique(3), 1, 1, 0.25, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated() {
		t.Errorf("expected violation: %s", res)
	}
}

func TestBWRounds(t *testing.T) {
	if got := repro.BWRounds(8, 1); got != 4 {
		t.Errorf("BWRounds(8,1) = %d", got)
	}
}

// TestFaultKindsAllRun runs every registered adversary strategy, with its
// default params, as the single Byzantine node of a BW execution: f=1
// tolerates any behavior, so the run must converge with validity whatever
// the registry holds.
func TestFaultKindsAllRun(t *testing.T) {
	g := repro.Clique(4)
	for i, kind := range repro.FaultKinds() {
		res, err := protocol(t, "bw")(g, []float64{1, 0, 1.5, 2}, repro.Options{
			F: 1, K: 2, Eps: 0.25, Seed: int64(i + 1),
			Faults: []repro.FaultSpec{{Node: 1, Kind: kind}},
		})
		if err != nil {
			t.Fatalf("fault %q: %v", kind, err)
		}
		if !res.Converged || !res.ValidityOK {
			t.Errorf("fault %q: %+v", kind, res)
		}
	}
}

// TestUnknownFaultHardError pins the satellite fix: an unregistered fault
// kind (or unknown param) must fail handler construction on the simulator
// path — never silently run the honest machine.
func TestUnknownFaultHardError(t *testing.T) {
	g := repro.Clique(4)
	inputs := []float64{0, 1, 2, 3}
	if _, err := protocol(t, "bw")(g, inputs, repro.Options{
		Faults: []repro.FaultSpec{{Node: 1, Kind: "gremlin"}},
	}); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
		t.Errorf("unknown kind: got %v", err)
	}
	if _, err := protocol(t, "bw")(g, inputs, repro.Options{
		Faults: []repro.FaultSpec{{Node: 1, Kind: "crash", Params: map[string]float64{"fuel": 1}}},
	}); err == nil || !strings.Contains(err.Error(), `unknown param "fuel"`) {
		t.Errorf("unknown param: got %v", err)
	}
	if _, err := protocol(t, "bw")(g, inputs, repro.Options{
		Faults: []repro.FaultSpec{{Node: 1, Kind: ""}},
	}); err == nil {
		t.Error("empty kind accepted")
	}
}

// TestFaultRegistryFacade pins the public catalog surface: kinds, defaults
// and one-line docs.
func TestFaultRegistryFacade(t *testing.T) {
	kinds := repro.FaultKinds()
	if len(kinds) < 9 {
		t.Fatalf("FaultKinds() = %v", kinds)
	}
	for _, kind := range kinds {
		if _, doc, err := repro.FaultDefaults(kind); err != nil || doc == "" {
			t.Errorf("FaultDefaults(%q): doc %q, err %v", kind, doc, err)
		}
	}
	if _, _, err := repro.FaultDefaults("gremlin"); err == nil {
		t.Error("unknown kind accepted by FaultDefaults")
	}
	if lk := repro.LinkFaultKinds(); len(lk) != 4 {
		t.Errorf("LinkFaultKinds() = %v", lk)
	}
	for _, kind := range repro.LinkFaultKinds() {
		if _, doc, err := repro.LinkFaultDefaults(kind); err != nil || doc == "" {
			t.Errorf("LinkFaultDefaults(%q): %q, %v", kind, doc, err)
		}
	}
}

// TestProtocolCatalog pins the registry metadata surface the CLIs render:
// every registered protocol appears exactly once with a legal tier and
// decision shape, and the exact tier is annotated as such.
func TestProtocolCatalog(t *testing.T) {
	catalog := repro.ProtocolCatalog()
	byName := make(map[string]repro.ProtocolInfo, len(catalog))
	for _, info := range catalog {
		if _, dup := byName[info.Name]; dup {
			t.Fatalf("protocol %q listed twice", info.Name)
		}
		byName[info.Name] = info
		if info.Tier != repro.TierApproximate && info.Tier != repro.TierExact {
			t.Errorf("protocol %q has tier %q", info.Name, info.Tier)
		}
		if info.Shape != repro.ShapeScalar && info.Shape != repro.ShapeVector {
			t.Errorf("protocol %q has shape %q", info.Name, info.Shape)
		}
	}
	for _, name := range repro.Protocols() {
		if _, ok := byName[name]; !ok {
			t.Errorf("registered protocol %q missing from catalog", name)
		}
	}
	for name, want := range map[string][2]string{
		"bw":  {repro.TierApproximate, repro.ShapeScalar},
		"aba": {repro.TierExact, repro.ShapeScalar},
		"acs": {repro.TierExact, repro.ShapeVector},
	} {
		info, ok := byName[name]
		if !ok {
			t.Fatalf("protocol %q missing from catalog", name)
		}
		if info.Tier != want[0] || info.Shape != want[1] {
			t.Errorf("protocol %q: tier/shape %q/%q, want %q/%q",
				name, info.Tier, info.Shape, want[0], want[1])
		}
		if info.Doc == "" {
			t.Errorf("protocol %q has no doc line", name)
		}
	}
}

func TestNamedGraphFacade(t *testing.T) {
	g, err := repro.NamedGraph("wheel:4")
	if err != nil || g.N() != 5 {
		t.Errorf("NamedGraph: %v %v", g, err)
	}
	if _, err := repro.NamedGraph("bogus"); err == nil {
		t.Error("bogus spec accepted")
	}
}

func TestCheckKReachFacade(t *testing.T) {
	if ok, _ := repro.CheckKReach(repro.Clique(5), 4, 1); !ok {
		t.Error("K5 should satisfy 4-reach for f=1")
	}
	if ok, w := repro.CheckKReach(repro.Clique(4), 4, 1); ok || w == nil {
		t.Error("K4 should fail 4-reach with witness")
	}
}

// TestCheckConditionsSkipsAboveCertLimit: past the removal-set budget that
// CertLimit stands for (what f = 1 tabulates at that order) the checkers
// must not run; the report says so explicitly instead of presenting
// unchecked falses as violations.
func TestCheckConditionsSkipsAboveCertLimit(t *testing.T) {
	check := func(spec string, f int) repro.ConditionReport {
		g, err := repro.NamedGraph(spec)
		if err != nil {
			t.Fatal(err)
		}
		return repro.CheckConditions(g, f)
	}
	// f = 2 fits up to n = 60: C(61, <=4) sets is over C(1024, <=2).
	over := []repro.ConditionReport{check("torus:16:16", 2), check("clique:61", 2), check("cycle:1024", 3)}
	if _, err := repro.NamedGraph("cycle:1025"); err == nil {
		over = append(over, check("cycle:1025", 1)) // buildable under -tags graph4096 only
	}
	for _, rep := range over {
		if rep.Certified || !strings.Contains(rep.Note, "skipped") || !strings.Contains(rep.Note, "removal sets") {
			t.Fatalf("n=%d f=%d should not certify, and say why: %+v", rep.N, rep.F, rep)
		}
		if rep.OneReach || rep.ThreeReach || rep.CCS {
			t.Fatal("skipped report must not claim any condition holds")
		}
	}
	// Inside the budget certification runs: Figure 1(b) at f = 2, f = 0 at
	// CertLimit itself, and the 512-vertex torus that was past the limit
	// while the limit was 64 (Table 1: n > 3f and κ = 4 > 2f).
	if small := repro.CheckConditions(graph.Fig1b(), 2); !small.Certified || !small.ThreeReach {
		t.Fatalf("fig1b should certify: %+v", small)
	}
	if rep := check("cycle:1024", 0); !rep.Certified || !rep.ThreeReach {
		t.Fatalf("cycle:%d, f=0 should certify: %+v", repro.CertLimit, rep)
	}
	if testing.Short() {
		return
	}
	rep := check("torus:16:32", 1)
	if !rep.Certified || !rep.OneReach || !rep.TwoReach || !rep.ThreeReach {
		t.Fatalf("torus:16:32, f=1 should certify and hold: %+v", rep)
	}
	if rep.Kappa != -1 || !strings.Contains(rep.Note, "κ not computed") {
		t.Fatalf("κ is bounded at 64 vertices and the note must say so: %+v", rep)
	}
}

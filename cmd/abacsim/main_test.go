package main

import (
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro"
)

func TestParseInputs(t *testing.T) {
	got, err := parseInputs("0, 1.5 ,2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0, 1.5, 2}) {
		t.Errorf("parseInputs = %v", got)
	}
	if _, err := parseInputs("1,2", 3); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := parseInputs("1,x,3", 3); err == nil {
		t.Error("garbage accepted")
	}
	def, err := parseInputs("", 5)
	if err != nil || len(def) != 5 {
		t.Errorf("default inputs: %v %v", def, err)
	}
}

func TestParseFaults(t *testing.T) {
	got, err := parseFaults("2:silent; 3:extreme:value=42")
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Kind != "silent" || got[2].Params != nil {
		t.Errorf("fault 2 = %+v", got[2])
	}
	if got[3].Kind != "extreme" || got[3].Params["value"] != 42 {
		t.Errorf("fault 3 = %+v", got[3])
	}
	// Omitted params defer to the registry defaults (no params emitted).
	def, err := parseFaults("1:crash")
	if err != nil || def[1].Params != nil {
		t.Errorf("crash default: %+v %v", def, err)
	}
	// Named multi-params.
	kv, err := parseFaults("1:crash:after=5,finalSends=2")
	if err != nil || kv[1].Params["after"] != 5 || kv[1].Params["finalSends"] != 2 {
		t.Errorf("kv params: %+v %v", kv, err)
	}
	// Composed layers.
	comp, err := parseFaults("1:crash:after=8+noise:amp=25+replay")
	if err != nil {
		t.Fatal(err)
	}
	want := []repro.Mutation{
		{Kind: "noise", Params: map[string]float64{"amp": 25}},
		{Kind: "replay"},
	}
	if !reflect.DeepEqual(comp[1].Compose, want) {
		t.Errorf("compose = %+v", comp[1].Compose)
	}
	// Exponent notation with an explicit plus is a value, not a layer
	// separator (regression: the compose splitter must not cut 1e+9).
	exp, err := parseFaults("1:extreme:value=1e+9; 2:noise:amp=2.5e+3")
	if err != nil || exp[1].Params["value"] != 1e9 || exp[2].Params["amp"] != 2.5e3 {
		t.Errorf("exponent params: %+v %v", exp, err)
	}
	if len(exp[1].Compose) != 0 || len(exp[2].Compose) != 0 {
		t.Errorf("exponent split into layers: %+v", exp)
	}
	for _, bad := range []string{"x:silent", "1", "1:nope", "1:nope:x=3", "1:crash:x", "1:silent:3", "1:crash:after", "1:crash+warp"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("parseFaults(%q) should fail", bad)
		}
	}
	// Two entries for one node are the scenario path's hard error, not
	// last-one-wins.
	// A bare value is not a spelling any more; the error names what is.
	if _, err := parseFaults("4:crash:10"); err == nil || !strings.Contains(err.Error(), "after=20 finalSends=1") {
		t.Errorf("bare scalar: %v", err)
	}
	if _, err := parseFaults("1:silent;1:extreme:value=1e6"); err == nil || !strings.Contains(err.Error(), "node 1 has two fault entries") {
		t.Errorf("two faults for node 1: %v", err)
	}
	if got, err := parseFaults(""); err != nil || got != nil {
		t.Errorf("empty spec: %v %v", got, err)
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := parsePolicy(""); err != nil || p != nil {
		t.Errorf("empty policy: %v %v", p, err)
	}
	p, err := parsePolicy("lifo")
	if err != nil || p.Name != "lifo" || p.Params != nil {
		t.Errorf("lifo: %+v %v", p, err)
	}
	p, err = parsePolicy("bounded:bound=8")
	if err != nil || p.Name != "bounded" || p.Params["bound"] != 8 {
		t.Errorf("bounded: %+v %v", p, err)
	}
	for _, bad := range []string{"warp", "bounded:bound", "bounded:bound=x"} {
		if _, err := parsePolicy(bad); err == nil {
			t.Errorf("parsePolicy(%q) should fail", bad)
		}
	}
	// Unknown names must mention the valid values.
	if _, err := parsePolicy("warp"); err == nil || !strings.Contains(err.Error(), "valid values are") {
		t.Errorf("unfriendly policy error: %v", err)
	}
}

func TestBuildScenarioValidatesEagerly(t *testing.T) {
	cases := []struct {
		name   string
		build  func() (*repro.Scenario, error)
		errHas string
	}{
		{"bad protocol", func() (*repro.Scenario, error) {
			return buildScenario("fig1a", "paxos", 1, 0, 0.1, 1, 0, "", "", 0, "")
		}, "valid values are"},
		{"bad graph", func() (*repro.Scenario, error) {
			return buildScenario("mobius:4", "bw", 1, 0, 0.1, 1, 0, "", "", 0, "")
		}, "unknown spec"},
		{"bad fault node", func() (*repro.Scenario, error) {
			return buildScenario("fig1a", "bw", 1, 0, 0.1, 1, 0, "", "9:silent", 0, "")
		}, "outside graph order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.build(); err == nil {
				t.Fatal("accepted")
			} else if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q missing %q", err, tc.errHas)
			}
		})
	}
}

func TestBuildScenarioCompilesFlags(t *testing.T) {
	s, err := buildScenario("clique:4", "crash", 1, 3, 0.2, 9, 4,
		"0,1,2,3", "2:silent", 0, "bounded:bound=5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol != "crashapprox" { // legacy alias resolved
		t.Errorf("protocol = %q", s.Protocol)
	}
	if s.Seeds != 4 || s.Seed != 9 {
		t.Errorf("scenario = %+v", s)
	}
	if s.Policy == nil || s.Policy.Name != "bounded" || s.Policy.Params["bound"] != 5 {
		t.Errorf("policy = %+v", s.Policy)
	}
	if len(s.Faults) != 1 || !reflect.DeepEqual(s.Faults[0], repro.FaultSpec{Node: 2, Kind: "silent"}) {
		t.Errorf("faults = %+v", s.Faults)
	}
	if !reflect.DeepEqual(s.Inputs, []float64{0, 1, 2, 3}) {
		t.Errorf("inputs = %v", s.Inputs)
	}
	// The compiled scenario round-trips through its canonical JSON.
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := repro.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round-trip drifted:\n got %+v\nwant %+v", back, s)
	}
}

func TestFaultSpecsSortedByNode(t *testing.T) {
	fl := map[int]repro.FaultSpec{
		3: {Node: 3, Kind: "noise", Params: map[string]float64{"amp": 2}},
		0: {Node: 0, Kind: "silent"},
	}
	specs := faultSpecs(fl)
	want := []repro.FaultSpec{
		{Node: 0, Kind: "silent"},
		{Node: 3, Kind: "noise", Params: map[string]float64{"amp": 2}},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("faultSpecs = %+v", specs)
	}
	if faultSpecs(nil) != nil {
		t.Error("empty map should give nil")
	}
}

// TestCatalogDefaults pins that every registered adversary with parameters
// has non-degenerate registry defaults (the old hand-maintained
// defaultParam switch is gone; the registry is the single source).
func TestCatalogDefaults(t *testing.T) {
	for _, kind := range repro.FaultKinds() {
		defs, _, err := repro.FaultDefaults(kind)
		if err != nil {
			t.Fatal(err)
		}
		if kind == "silent" {
			if len(defs) != 0 {
				t.Errorf("silent should have no params: %v", defs)
			}
			continue
		}
		if len(defs) == 0 {
			t.Errorf("kind %q has no registered params", kind)
		}
	}
}

// TestEngineFlagIsGone: the engine knobs went with the engines, so the flag
// is an unknown one. Flag errors exit the process, hence the re-run of this
// test binary as abacsim (the arguments after "--").
func TestEngineFlagIsGone(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"abacsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("abacsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestEngineFlagIsGone$", "--", "-engine", "inline").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -engine") {
		t.Fatalf("abacsim -engine inline: err %v, output:\n%s", err, out)
	}
}

func TestRuntimeFlagValidatesEagerly(t *testing.T) {
	// Every listed runtime is accepted; anything else fails by name with
	// the valid values — the same eager UX as -policy.
	for _, name := range repro.RuntimeNames() {
		if err := validateName("runtime", name, repro.RuntimeNames()); err != nil {
			t.Errorf("runtime %q rejected: %v", name, err)
		}
	}
	err := validateName("runtime", "warp", repro.RuntimeNames())
	if err == nil || !strings.Contains(err.Error(), "unknown runtime") ||
		!strings.Contains(err.Error(), "loopback") {
		t.Fatalf("want unknown-runtime error naming the valid values, got %v", err)
	}
}

// TestNecessityRejectsNegativeF: -f -1 means "explicitly zero" to a
// Scenario, but the necessity construction has no Scenario to normalize it
// and used to panic sizing a slice with it. The door names the flag and the
// library call returns an error.
func TestNecessityRejectsNegativeF(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"abacsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("abacsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestNecessityRejectsNegativeF$", "--",
		"-graph", "clique:4", "-algo", "necessity", "-f", "-1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "abacsim: -f -1") || strings.Contains(string(out), "goroutine ") ||
		strings.Count(strings.TrimSpace(string(out)), "\n") != 0 {
		t.Fatalf("abacsim -algo necessity -f -1: err %v, output:\n%s", err, out)
	}
	if _, err := repro.RunNecessity(repro.Clique(4), -1, 1, 0.25, 1); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("repro.RunNecessity(f=-1) = %v, want a negative-fault-bound error", err)
	}
}

// abacsim runs this test binary as abacsim with args, from the test named
// name (which must start by calling asAbacsim), and returns its output.
func abacsim(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"-test.run=^" + name + "$", "--"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("abacsim %v: %v, output:\n%s", args, err, out)
	}
	return string(out)
}

// asAbacsim turns a re-run of this test binary into abacsim (the arguments
// after "--") and exits.
func asAbacsim() {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"abacsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("abacsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
}

// TestFlagFZeroIsZero: -f 0 asks for a fault bound of zero, not for the
// default of 1. The scenario carries FZero, its JSON sentinel, and the
// banner says f=0.
func TestFlagFZeroIsZero(t *testing.T) {
	asAbacsim()
	s, err := buildScenario("clique:4", "iterative", 0, 0, 0.1, 1, 0, "", "", 0, "")
	if err != nil || s.F != repro.FZero {
		t.Fatalf("buildScenario(f=0): F = %d, %v; want FZero", s.F, err)
	}
	if out := abacsim(t, "TestFlagFZeroIsZero", "-graph", "clique:4", "-algo", "iterative", "-f", "0"); !strings.Contains(out, "f=0,") {
		t.Fatalf("abacsim -f 0 banner:\n%s", out)
	}
}

// TestSummaryReportsThreeReach: a run outside the paper's condition says so
// instead of looking like a success that did not converge, and a run
// inside it says that too; a graph too large to check cheaply says the
// verdict was not computed.
func TestSummaryReportsThreeReach(t *testing.T) {
	asAbacsim()
	for _, tc := range []struct{ graph, want string }{
		{"cycle:8", "3-reach(f=1): false (outside the paper's condition"},
		{"fig1a", "3-reach(f=1): true\n"},
		{"torus:20:20", "3-reach(f=1): not computed (order 400"},
	} {
		if out := abacsim(t, "TestSummaryReportsThreeReach", "-graph", tc.graph, "-algo", "iterative"); !strings.Contains(out, tc.want) {
			t.Errorf("abacsim -graph %s: want %q in the summary:\n%s", tc.graph, tc.want, out)
		}
	}
}

package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/service"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its argument: %v", in)
	}
}

// The driver judges steadiness with Python's statistics.quantiles(v, n=4);
// for 1..10 that gives [2.75, 5.5, 8.25].
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{4}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// and the file must stay inside the limits the driver refuses beyond.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d: want the program's default %d, inside 1..60", m.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		use(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, code has %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, file []entry, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(file), len(defs))
		}
		for i, d := range defs {
			use(d.name)
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || !unit.MatchString(d.unit) {
				t.Errorf("%s %d: file %+v, code %+v", kind, i, f, d)
			}
			if bounded && (f.Bound == nil || *f.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound in the file %v, in the code %v", d.name, f.Bound, d.bound)
			}
			if !bounded && f.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(7)
		c, _ := w.generate(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a.scenario.Inputs, c.scenario.Inputs) || a.scenario.Seed == c.scenario.Seed {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
		if err := a.scenario.Validate(); err != nil {
			t.Errorf("%s: generated scenario does not validate: %v", w.name, err)
		}
		if (a.byz >= 0) != (w.fault != "") || len(a.order)+len(a.scenario.Faults) != len(a.scenario.Inputs) {
			t.Errorf("%s: byz %d, %d honest of %d", w.name, a.byz, len(a.order), len(a.scenario.Inputs))
		}
	}
}

func smoke(t *testing.T, w workload, seed int64, trace bool) report {
	t.Helper()
	rep, err := runWorkload(runConfig{w: w, seed: seed, seconds: 0.3, trace: trace, log: io.Discard, quick: true})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d failed", w.name, rep.Correct, rep.Failed, rep.Attempted)
	}
	defs := metricDefs(trace)
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics reported, %d defined", w.name, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := rep.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s reported as %+v", w.name, d.name, v)
		}
	}
	return rep
}

// Every workload runs end to end with tracing off, on 60 ms windows. The
// numbers mean nothing at that length; that each is produced, and that the
// oracle accepts every decision, is the point.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep := smoke(t, w, 3, false)
			if rep.Metrics["setup_s"].Value <= 0 {
				t.Errorf("setup_s = %v", rep.Metrics["setup_s"].Value)
			}
		})
	}
}

// The traced pass reports every per-layer metric, and the exact step count
// repeats bit for bit for a fixed seed.
func TestTracedPassAndStepDeterminism(t *testing.T) {
	svc, _ := workloadByName("svc-acs-closed")
	rep := smoke(t, svc, 3, true)
	for _, name := range []string{
		"cluster.frames_per_decision", "wire.encode_ns_per_frame", "node.loop_ns_per_frame",
		"cluster.mux_ns_per_frame", "service.dispatch_ns_per_frame", "machine.acs.deliver_ns_mean",
		"budget.unexplained_share", "go.allocs_per_decision",
	} {
		if rep.Metrics[name].Value == 0 {
			t.Errorf("svc-acs-closed: %s is 0", name)
		}
	}
	iter, _ := workloadByName("sim-iter-1k")
	a := smoke(t, iter, 5, true).Metrics["sim.steps_per_decision"].Value
	b := smoke(t, iter, 5, true).Metrics["sim.steps_per_decision"].Value
	if a == 0 || a != b {
		t.Errorf("sim.steps_per_decision %v then %v for the same seed", a, b)
	}
}

func acsDecisions(n int, vec map[int]float64) []service.Decision {
	decs := make([]service.Decision, n)
	for i := range decs {
		copied := make(map[int]float64, len(vec))
		for k, v := range vec {
			copied[k] = v
		}
		decs[i] = service.Decision{Inst: 1 << 10, Protocol: "acs", Vector: copied}
	}
	return decs
}

// A corrupted decision vector is rejected and counted as failed.
func TestOracleCountsCorruptedVector(t *testing.T) {
	w, _ := workloadByName("svc-acs-closed")
	gen, err := w.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	o := newFleetOracle(w, gen)
	vec := map[int]float64{}
	for v, x := range gen.scenario.Inputs[:7] {
		vec[v] = x
	}
	ops := []op{{inst: 1 << 10}}
	good := acsDecisions(8, vec)
	fetch := func(decs []service.Decision) func(uint64) ([]service.Decision, error) {
		return func(uint64) ([]service.Decision, error) { return decs, nil }
	}
	if failed, wrong := o.judge(ops, fetch(good)); failed != 0 || wrong != nil {
		t.Fatalf("a correct instance counted failed (%d, %v)", failed, wrong)
	}
	disagree := acsDecisions(8, vec)
	disagree[5].Vector[2] += 0.5
	notInput := acsDecisions(8, vec)
	for _, d := range notInput {
		d.Vector[2] += 0.5
	}
	small := acsDecisions(8, map[int]float64{0: gen.scenario.Inputs[0]})
	for name, bad := range map[string][]service.Decision{"disagreement": disagree, "not the input": notInput, "small subset": small} {
		if failed, wrong := o.judge(ops, fetch(bad)); failed != 1 || wrong == nil {
			t.Errorf("%s: failed %d, wrong %v; want it rejected and counted", name, failed, wrong)
		}
	}
	undecided := func(uint64) ([]service.Decision, error) { return nil, errors.New("retired without deciding") }
	if failed, wrong := o.judge(ops, undecided); failed != 1 || wrong != nil {
		t.Errorf("undecided instance: failed %d, wrong %v; want counted, not an oracle rejection", failed, wrong)
	}

	aad, _ := workloadByName("svc-aad-byz")
	agen, _ := aad.generate(1)
	ao := newFleetOracle(aad, agen)
	spread := []service.Decision{{Value: ao.lo}, {Value: ao.lo + aad.eps}}
	if err := ao.check(spread); err == nil {
		t.Error("aad decisions eps apart were accepted")
	}
	if err := ao.check([]service.Decision{{Value: ao.hi + 1}}); err == nil {
		t.Error("an aad decision outside the honest hull was accepted")
	}
}

func TestScalarOracle(t *testing.T) {
	bw, _ := workloadByName("sim-bw")
	ok := &repro.Result{Decided: true, Converged: true, ValidityOK: true}
	if err := checkScalar(bw, 1, ok); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	for name, r := range map[string]*repro.Result{
		"undecided": {Converged: true, ValidityOK: true},
		"invalid":   {Decided: true, Converged: true},
		"spread":    {Decided: true, ValidityOK: true},
	} {
		if checkScalar(bw, 1, r) == nil {
			t.Errorf("%s result accepted", name)
		}
	}
	iter, _ := workloadByName("sim-iter-1k")
	if checkScalar(iter, 1, &repro.Result{Decided: true, ValidityOK: true, Spread: 2}) == nil {
		t.Error("iterative result wider than its inputs accepted")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "decide_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "decisions_per_s", better: "higher", bound: 0.10}
	s := func(med, spread float64) *series { return &series{Median: med, Spread: spread} }
	for _, c := range []struct {
		d    metricDef
		a, b *series
		want string
	}{
		{lower, s(10, 0.02), s(10.5, 0.02), "same"},
		{lower, s(10, 0.02), s(11.5, 0.02), "WORSE"},
		{lower, s(10, 0.02), s(8, 0.02), "better"},
		{higher, s(100, 0.02), s(85, 0.02), "WORSE"},
		{higher, s(100, 0.02), s(115, 0.02), "better"},
		{lower, s(10, 0.2), s(11.5, 0.02), "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestTimelineAttribution(t *testing.T) {
	tl := newTimeline(untracedPhases(1e9))
	if len(tl.phases) != 1+measuredWindows || !tl.phases[0].warm {
		t.Fatalf("phases %+v", tl.phases)
	}
	if tl.at(tl.t0.Add(-1)) != -1 || tl.at(tl.end()) != -1 {
		t.Error("times outside the timeline must map to no phase")
	}
	if got := tl.at(tl.boundary(2)); got != 2 {
		t.Errorf("a boundary belongs to the phase it opens, got %d", got)
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro"
	"repro/internal/seedmix"
)

// loadKind says how a workload offers load.
type loadKind int

const (
	closedLoop  loadKind = iota // service fleet, clients wait for each reply
	openLoop                    // service fleet, submits on a fixed schedule
	oneshotLoop                 // Scenario.RunOn(ctx, "tcp") back to back
	simLoop                     // Scenario.Run() back to back
)

// workload is one named set of inputs. An operation (a decision) is one
// consensus instance from start to decided, everywhere.
type workload struct {
	name, why string
	kind      loadKind
	graph     string
	protocol  string
	fault     string  // adversary run by one seed-chosen vertex; "" = none
	k, eps    float64 // explicit, so the round count does not move with the seed
	// load is the number of load goroutines (= client connections for the
	// closed loop); waiter goroutines parked on a decision do not count.
	load int
	// rate is the open loop's offered load; ladder are the extra rates the
	// traced pass steps through for client.slo_rate_per_s.
	rate   float64
	ladder []float64
}

// Every workload's why is also the text BENCHMARK.json and the README give.
var workloads = []workload{
	{
		name: "svc-acs-closed", kind: closedLoop, graph: "clique:8", protocol: "acs", k: 4, eps: 0.1, load: 2,
		why: "saturation probe of the whole live path on small frames (~3.7k per decision): wire, node, cluster and service dominate, machines are the minority",
	},
	{
		name: "svc-acs-open", kind: openLoop, graph: "clique:8", protocol: "acs", k: 4, eps: 0.1, load: 1,
		rate: 80, ladder: []float64{40, 120, 160},
		why: "same fleet at a fixed 80/s (about half of saturation), timed from when each submit was due: batching that lifts closed-loop throughput can add delay here",
	},
	{
		name: "svc-aad-byz", kind: closedLoop, graph: "clique:8", protocol: "aad", fault: "equivocate", k: 4, eps: 0.1, load: 2,
		why: "machine-dominated service workload and the service tier's fault run: ~12k frames per decision, one equivocating vertex; rbc/aad changes move it most, transport changes least",
	},
	{
		name: "oneshot-bw-tcp", kind: oneshotLoop, graph: "fig1a", protocol: "bw", fault: "tamper", k: 4, eps: 0.1, load: 1,
		why: "the paper's Algorithm BW on the real wire with large path-carrying frames and per-operation connection set-up and teardown (cluster/tcp.go), one tampering vertex",
	},
	{
		name: "sim-bw", kind: simLoop, graph: "fig1a", protocol: "bw", k: 4, eps: 0.1, load: 1,
		why: "no live tier at all: graph/path machinery and internal/bw do nearly all the work, so wire, cluster and service changes must show no change here",
	},
	{
		name: "sim-iter-1k", kind: simLoop, graph: "torus:32:32", protocol: "iterative", k: 3, eps: 0.25, load: 1,
		why: "trivial machine on 1024 vertices (the E14 scale-iter-torus-1024 cell): sim.Runner and transport.Pool dominate, bypassing internal/bw",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generated is everything a run derives from -seed. The program under test
// receives only the scenario.
type generated struct {
	scenario repro.Scenario
	// byz is the Byzantine vertex (-1 without a fault); order lists the
	// honest vertices in the seed-shuffled order clients and the open-loop
	// scheduler walk them in.
	byz   int
	order []int
}

func (w workload) generate(seed int64) (generated, error) {
	g, err := repro.NamedGraph(w.graph)
	if err != nil {
		return generated{}, err
	}
	n := g.N()
	var salt int64
	for _, c := range w.name {
		salt = salt*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seedmix.Mix(seed, salt)))
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = math.Round(rng.Float64()*w.k*1000) / 1000
	}
	gen := generated{
		scenario: repro.Scenario{
			Name: w.name, Graph: w.graph, Protocol: w.protocol,
			Inputs: inputs, F: 1, K: w.k, Eps: w.eps,
			Seed: rng.Int63n(1 << 40),
		},
		byz: -1,
	}
	if w.fault != "" {
		gen.byz = rng.Intn(n)
		gen.scenario.Faults = []repro.FaultSpec{{Node: gen.byz, Kind: w.fault}}
	}
	for _, v := range rng.Perm(n) {
		if v != gen.byz {
			gen.order = append(gen.order, v)
		}
	}
	return gen, nil
}

// phase is one stretch of a run's timeline. Load runs through all of them;
// warm phases are discarded, traced phases ask for the ".traced" aliases.
type phase struct {
	dur    time.Duration
	warm   bool
	traced bool
	// rate overrides the open loop's offered rate (the traced pass's
	// ladder); 0 keeps the workload's.
	rate float64
}

// protocolIn names the protocol a phase asks for.
func (w workload) protocolIn(p phase) string {
	if p.traced {
		return w.protocol + tracedSuffix
	}
	return w.protocol
}

const measuredWindows = 5

func warmup(total time.Duration) time.Duration {
	w := total * 15 / 100
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

// untracedPhases is the end-to-end protocol: a discarded warm-up, then
// five measured windows that together last the requested seconds.
func untracedPhases(total time.Duration) []phase {
	ph := []phase{{dur: warmup(total), warm: true}}
	for i := 0; i < measuredWindows; i++ {
		ph = append(ph, phase{dur: total / measuredWindows})
	}
	return ph
}

// tracedPhases alternates untraced and traced windows of equal length, so
// that tracing overhead is a within-process comparison, and appends the
// open-loop ladder when the workload has one.
func tracedPhases(total time.Duration, w workload) []phase {
	win := total / 8
	ph := []phase{{dur: warmup(total) / 2, warm: true}}
	for i := 0; i < 2; i++ {
		ph = append(ph, phase{dur: win}, phase{dur: win, traced: true})
	}
	for _, r := range w.ladder {
		// A short discarded stretch lets the new rate settle.
		ph = append(ph, phase{dur: win / 4, warm: true, rate: r}, phase{dur: win, rate: r})
	}
	return ph
}

// timeline pins phases to the clock.
type timeline struct {
	t0     time.Time
	phases []phase
	starts []time.Duration // starts[i] is phase i's offset; the last entry is the end
}

func newTimeline(phases []phase) *timeline {
	tl := &timeline{phases: phases, starts: make([]time.Duration, len(phases)+1)}
	for i, p := range phases {
		tl.starts[i+1] = tl.starts[i] + p.dur
	}
	return tl
}

func (tl *timeline) boundary(i int) time.Time { return tl.t0.Add(tl.starts[i]) }
func (tl *timeline) end() time.Time           { return tl.boundary(len(tl.phases)) }

// at returns the index of the phase t falls in, or -1 once the timeline is
// over (or has not begun).
func (tl *timeline) at(t time.Time) int {
	off := t.Sub(tl.t0)
	if off < 0 || off >= tl.starts[len(tl.phases)] {
		return -1
	}
	for i := range tl.phases {
		if off < tl.starts[i+1] {
			return i
		}
	}
	return -1
}

// op is one operation as the load generator saw it.
type op struct {
	phase     int           // phase it was started (open loop: due) in
	due, end  time.Time     // latency is end − due; a closed loop is due when it starts
	late      time.Duration // open loop: how long after due the submit began
	submit    time.Duration // open loop: time inside Daemon.Submit
	elapsedMS float64       // daemon-reported Decision.ElapsedMS
	inst      uint64
	steps     int        // deliveries (sim) or frames sent (one-shot)
	spans     spanTotals // run loops, traced phases: this operation's machine spans
	err       error      // the operation failed: errored, refused or timed out
	wrong     error      // the operation completed with an output the oracle rejects
}

// counters is what a boundary sample reads off the system under test.
type counters struct {
	frames, waits, shed, late, pendingShed, refused, bad, depthMax int64
}

func (c counters) sub(o counters) counters {
	return counters{
		frames: c.frames - o.frames, waits: c.waits - o.waits, shed: c.shed - o.shed,
		late: c.late - o.late, pendingShed: c.pendingShed - o.pendingShed,
		refused: c.refused - o.refused, bad: c.bad - o.bad, depthMax: c.depthMax,
	}
}

func (c counters) add(o counters) counters {
	out := counters{
		frames: c.frames + o.frames, waits: c.waits + o.waits, shed: c.shed + o.shed,
		late: c.late + o.late, pendingShed: c.pendingShed + o.pendingShed,
		refused: c.refused + o.refused, bad: c.bad + o.bad, depthMax: c.depthMax,
	}
	if o.depthMax > out.depthMax {
		out.depthMax = o.depthMax
	}
	return out
}

// sample is the state read at one phase boundary.
type sample struct {
	t          time.Time
	cpu, gc    time.Duration
	mallocs    uint64
	allocBytes uint64
	spans      spanTotals
	ctr        counters
}

// env is a workload that has been set up: it can offer load along a
// timeline, read its counters, and judge the operations afterwards.
type env interface {
	// load runs the workload's load goroutines until the timeline ends and
	// returns every operation they started.
	load(tl *timeline) []op
	counters() counters
	// verify is the correctness oracle, run off the clock: it returns how
	// many of ops failed (errored, undecided or rejected) and whether any
	// output was wrong.
	verify(ops []op) (failed int, wrong error)
	close()
}

// checkScalar is the one-shot and sim oracle. The iterative baseline
// promises contraction, not ε-agreement, within its round bound on a torus
// (E14 records Converged=false for this cell), so it is held to "decided,
// inside the input hull, spread no wider than the inputs'".
func checkScalar(w workload, inputSpread float64, r *repro.Result) error {
	switch {
	case !r.Decided:
		return fmt.Errorf("%s: an honest vertex did not decide", w.name)
	case !r.ValidityOK:
		return fmt.Errorf("%s: an output left the honest-input hull", w.name)
	case w.protocol == "iterative" && r.Spread > inputSpread:
		return fmt.Errorf("%s: output spread %g wider than input spread %g", w.name, r.Spread, inputSpread)
	case w.protocol != "iterative" && !r.Converged:
		return fmt.Errorf("%s: output spread %g not below eps %g", w.name, r.Spread, w.eps)
	}
	return nil
}

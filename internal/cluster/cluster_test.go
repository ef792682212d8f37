package cluster_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/sim"
)

// iterativeSpec builds an honest all-to-all iterative run: on a clique with
// f=0 every node collects every value each round, so all nodes agree
// exactly after one round whatever the schedule — a tight, deterministic
// assertion even on live transports.
func iterativeSpec(t *testing.T, n, rounds int) cluster.Spec {
	t.Helper()
	g := graph.Clique(n)
	handlers := make([]sim.Handler, n)
	for i := 0; i < n; i++ {
		h, err := iterative.NewMachine(g, 0, i, rounds, float64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = h
	}
	return cluster.Spec{Graph: g, Handlers: handlers, Honest: graph.FullSet(n)}
}

func checkAgreement(t *testing.T, out *cluster.Outcome, want int, eps float64) {
	t.Helper()
	if !out.Decided {
		t.Fatalf("run did not decide: %+v", out)
	}
	if len(out.Outputs) != want {
		t.Fatalf("%d outputs, want %d", len(out.Outputs), want)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range out.Outputs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi-lo >= eps {
		t.Fatalf("spread %g >= eps %g (outputs %v)", hi-lo, eps, out.Outputs)
	}
}

func TestLoopbackIterativeClique(t *testing.T) {
	spec := iterativeSpec(t, 4, 3)
	out, err := cluster.RunLoopback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, out, 4, 1e-9)
	if out.Runtime != "loopback" {
		t.Fatalf("runtime = %q", out.Runtime)
	}
	if out.Sent == 0 || out.Deliveries == 0 || out.ByKind["ITER-VAL"] == 0 {
		t.Fatalf("stats not collected: %+v", out)
	}
	for id, h := range spec.Handlers {
		if hist := h.(*iterative.Machine).History(); len(hist) != 3 {
			t.Fatalf("node %d history %v, want 3 rounds", id, hist)
		}
	}
}

// TestLoopbackBWWithSilentFault runs the paper's Algorithm BW on Figure
// 1(a) with a silent Byzantine node — the same setup the simulator's
// experiments use — and asserts the protocol guarantees (termination,
// validity, ε-agreement) hold over the live runtime.
func TestLoopbackBWWithSilentFault(t *testing.T) {
	g := graph.Fig1a()
	inputs := []float64{0, 4, 1, 3, 2}
	const f, k, eps = 1, 4, 0.25
	proto, err := bw.NewProto(g, f, k, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	honest := graph.EmptySet
	for i := 0; i < g.N(); i++ {
		if i == 1 {
			handlers[i] = &adversary.Silent{NodeID: i}
			continue
		}
		m, err := bw.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = m
		honest = honest.Add(i)
	}
	out, err := cluster.RunLoopback(context.Background(),
		cluster.Spec{Graph: g, Handlers: handlers, Honest: honest})
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, out, honest.Count(), eps)
	for id, x := range out.Outputs {
		if x < 0 || x > 4 {
			t.Fatalf("node %d output %g violates validity [0, 4]", id, x)
		}
	}
}

// TestTwoNodeIntegration runs on every runtime: both are a Mux fleet, so
// both must account for every frame the same way.
func TestTwoNodeIntegration(t *testing.T) {
	for _, name := range cluster.Runtimes() {
		t.Run(name, func(t *testing.T) {
			runner, err := cluster.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			out, err := runner(context.Background(), iterativeSpec(t, 2, 2))
			if err != nil {
				t.Fatal(err)
			}
			checkAgreement(t, out, 2, 1e-9)
			if out.Runtime != name {
				t.Fatalf("runtime = %q", out.Runtime)
			}
			// Every frame a node wrote was either accepted by a per-edge
			// queue or shed by one at shutdown: the queue accounting is wired
			// end to end.
			if q := out.Queue; q.Enqueued <= 0 || q.Enqueued+q.Shed != int64(out.Frames) {
				t.Fatalf("queue accounting %+v does not add up to %d written frames", q, out.Frames)
			}
		})
	}
}

// TestLoopbackTimeoutUndecided checks the non-terminating path: all-silent
// handlers never decide, so the run must come back at its context's
// deadline with Decided false and no error.
func TestLoopbackTimeoutUndecided(t *testing.T) {
	g := graph.Clique(2)
	spec := cluster.Spec{
		Graph:    g,
		Handlers: []sim.Handler{&adversary.Silent{NodeID: 0}, &adversary.Silent{NodeID: 1}},
		Honest:   graph.FullSet(2),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, err := cluster.RunLoopback(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Decided || len(out.Outputs) != 0 {
		t.Fatalf("outcome = %+v, want undecided", out)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("timeout did not bound the run")
	}
}

func TestLoopbackCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.Clique(2)
	spec := cluster.Spec{
		Graph:    g,
		Handlers: []sim.Handler{&adversary.Silent{NodeID: 0}, &adversary.Silent{NodeID: 1}},
		Honest:   graph.FullSet(2),
	}
	if _, err := cluster.RunLoopback(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	g := graph.Clique(2)
	h0, _ := iterative.NewMachine(g, 0, 0, 1, 0, nil)
	cases := []cluster.Spec{
		{},                                      // no graph
		{Graph: g, Handlers: []sim.Handler{h0}}, // wrong arity
		{Graph: g, Handlers: []sim.Handler{h0, h0}},  // duplicate id
		{Graph: g, Handlers: []sim.Handler{h0, nil}}, // nil handler
	}
	for i, spec := range cases {
		if _, err := cluster.RunLoopback(context.Background(), spec); err == nil {
			t.Errorf("spec %d: want error", i)
		}
	}
}

// TestOneShotLeavesNoGoroutine: a one-shot run owns no goroutine per
// vertex and leaves none behind. Readers run the nodes inline, a hand-off
// goroutine is joined by its node's Close, and the fleet joins its readers
// and writers, so once RunLoopback and RunTCP return the process has no
// more goroutines than before — whether the run decided or timed out
// undecided with frames still in its mailboxes.
func TestOneShotLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, run := range []func(context.Context, cluster.Spec) (*cluster.Outcome, error){cluster.RunLoopback, cluster.RunTCP} {
		out, err := run(context.Background(), iterativeSpec(t, 6, 4))
		if err != nil {
			t.Fatal(err)
		}
		checkAgreement(t, out, 6, 1e-9)
		spec := iterativeSpec(t, 4, 1<<20) // never decides in time
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		out, err = run(ctx, spec)
		cancel()
		if err != nil || out.Decided {
			t.Fatalf("timed-out run: decided %v, err %v; want undecided, no error", out.Decided, err)
		}
	}
	// A joined goroutine can still be on its way out of WaitGroup.Done
	// when Wait returns: give those a moment, not a leak.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the runs, %d before\n%s", now, before, buf[:runtime.Stack(buf, true)])
	}
}

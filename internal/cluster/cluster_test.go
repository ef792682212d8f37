package cluster_test

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
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
	out, err := cluster.RunLoopback(context.Background(), iterativeSpec(t, 4, 3))
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
	for id, hist := range out.Histories {
		if len(hist) != 3 {
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

func TestTCPTwoNodeIntegration(t *testing.T) {
	out, err := cluster.RunTCP(context.Background(), iterativeSpec(t, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, out, 2, 1e-9)
	if out.Runtime != "tcp" {
		t.Fatalf("runtime = %q", out.Runtime)
	}
	// Every frame a node sent was either accepted by a per-edge queue or
	// shed by one at shutdown: the queue accounting is wired end to end.
	if q := out.Queue; q.Enqueued <= 0 || q.Enqueued+q.Shed != int64(out.Sent) {
		t.Fatalf("queue accounting %+v does not add up to %d sent frames", q, out.Sent)
	}
}

// TestJoinTCPWithPortCollision exercises the daemon path end to end: two
// vertices join over real sockets, and the first vertex's configured port
// is deliberately occupied so Listen must fall back to the next port. The
// dial side starts before the second listener is up, exercising the
// dial-race retry too.
func TestJoinTCPWithPortCollision(t *testing.T) {
	g := graph.Clique(2)
	mk := func(id int) sim.Handler {
		h, err := iterative.NewMachine(g, 0, id, 1, float64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	// Occupy a port so vertex 0's Listen(addr, 4) has to skip it.
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	blockedAddr := blocker.Addr().String()

	// Vertex 1's listener is pre-bound so its address is known up front;
	// vertex 0 discovers its own (post-fallback) address via OnListen and
	// hands it to vertex 1 through a channel. Vertex 1 therefore dials an
	// address whose listener may not be accepting yet — the dial-race the
	// retry loop absorbs.
	ln1, err := cluster.Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}

	addr0 := make(chan string, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runCtx, stopNodes := context.WithCancel(ctx)
	defer stopNodes()

	var wg sync.WaitGroup
	outcomes := make([]*cluster.NodeOutcome, 2)
	errs := make([]error, 2)
	decided := make(chan int, 2)

	wg.Add(2)
	go func() {
		defer wg.Done()
		outcomes[0], errs[0] = cluster.JoinTCP(runCtx, cluster.JoinConfig{
			ID: 0, Graph: g, Handler: mk(0),
			Listen: blockedAddr, ListenAttempts: 4,
			Peers:    map[int]string{1: ln1.Addr().String()},
			OnListen: func(a string) { addr0 <- a },
			OnDecide: func(int, float64) { decided <- 0 },
		})
	}()
	go func() {
		defer wg.Done()
		outcomes[1], errs[1] = cluster.JoinTCP(runCtx, cluster.JoinConfig{
			ID: 1, Graph: g, Handler: mk(1),
			Listener: ln1,
			Peers:    map[int]string{0: <-addr0},
			OnDecide: func(int, float64) { decided <- 1 },
		})
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-decided:
		case <-ctx.Done():
			t.Fatal("nodes never decided")
		}
	}
	stopNodes()
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
		if !outcomes[i].Decided || outcomes[i].Output != 0.5 {
			t.Fatalf("join %d outcome = %+v, want decided 0.5", i, outcomes[i])
		}
	}
	if outcomes[0].Addr == blockedAddr {
		t.Fatalf("vertex 0 bound the occupied port %s", blockedAddr)
	}
}

// TestJoinTCPLateJoiner exercises joining mid-instance: two of three
// vertices start immediately and send their round-1 values toward the
// third, whose JoinTCP only begins well after the instance is underway.
// Its pre-bound listener holds the early connections in the accept
// backlog, so the latecomer must drain already-queued frames on join; the
// early vertices (f=0, so each round waits for every in-neighbor) are
// blocked on it and may only decide once it catches up.
func TestJoinTCPLateJoiner(t *testing.T) {
	const n = 3
	g := graph.Clique(n)
	mk := func(id int) sim.Handler {
		h, err := iterative.NewMachine(g, 0, id, 2, float64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	listeners := make([]net.Listener, n)
	peers := make(map[int]string, n)
	for i := range listeners {
		ln, err := cluster.Listen("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runCtx, stopNodes := context.WithCancel(ctx)
	defer stopNodes()

	var wg sync.WaitGroup
	outcomes := make([]*cluster.NodeOutcome, n)
	errs := make([]error, n)
	decided := make(chan int, n)
	join := func(i int) {
		defer wg.Done()
		others := make(map[int]string, n-1)
		for j, addr := range peers {
			if j != i {
				others[j] = addr
			}
		}
		outcomes[i], errs[i] = cluster.JoinTCP(runCtx, cluster.JoinConfig{
			ID: i, Graph: g, Handler: mk(i),
			Listener: listeners[i],
			Peers:    others,
			OnDecide: func(int, float64) { decided <- i },
		})
	}

	wg.Add(n)
	go join(0)
	go join(1)
	go func() {
		time.Sleep(300 * time.Millisecond) // instance well underway
		join(2)
	}()

	for i := 0; i < n; i++ {
		select {
		case <-decided:
		case <-ctx.Done():
			t.Fatal("nodes never decided")
		}
	}
	stopNodes()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
		if !outcomes[i].Decided || outcomes[i].Output != 1 {
			t.Fatalf("join %d outcome = %+v, want decided 1 (mean of 0,1,2)", i, outcomes[i])
		}
	}
}

func TestListenPortFallback(t *testing.T) {
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	addr := blocker.Addr().String()

	if _, err := cluster.Listen(addr, 1); err == nil {
		t.Fatal("want collision error with a single attempt")
	}
	ln, err := cluster.Listen(addr, 8)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	defer ln.Close()
	if ln.Addr().String() == addr {
		t.Fatal("fallback bound the occupied address")
	}
}

// TestLoopbackTimeoutUndecided checks the non-terminating path: all-silent
// handlers never decide, so the run must come back within its timeout with
// Decided false and no error.
func TestLoopbackTimeoutUndecided(t *testing.T) {
	g := graph.Clique(2)
	spec := cluster.Spec{
		Graph:    g,
		Handlers: []sim.Handler{&adversary.Silent{NodeID: 0}, &adversary.Silent{NodeID: 1}},
		Honest:   graph.FullSet(2),
		Timeout:  200 * time.Millisecond,
	}
	start := time.Now()
	out, err := cluster.RunLoopback(context.Background(), spec)
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

// Package cluster materializes a whole protocol run as live nodes over a
// real transport: one node.Node per graph vertex (faulty vertices carry
// their adversary-wrapped handlers), each behind its own Mux — the one
// transport the service daemon uses too — with the Muxes connected over an
// in-process memory network (loopback, what the tests use) or localhost
// TCP sockets. It is the execution tier next to internal/sim: the same
// machines, the same topology rules, but actual concurrency and actual
// serialization instead of a centrally scheduled message pool.
//
// The harness starts every node and waits until every honest vertex has
// decided (or the context ends), then shuts the runtime down and collects
// outputs and traffic statistics. A node here is fed exactly as a service
// instance is: each Mux reader posts its read bursts to the node's mailbox
// and runs it inline when it is idle (node.Post), so the one-shot tier has
// no goroutine of its own per vertex. Any schedule the transports produce is a
// legal asynchronous execution, so the protocol guarantees checked by the
// simulator — validity and ε-agreement — must hold here too; the
// cross-runtime conformance tests in the root package assert exactly that.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/node"
	"repro/internal/sim"
)

// Spec describes one materialized cluster run.
type Spec struct {
	// Graph is the topology; Handlers[i] is vertex i's machine (honest or
	// adversary-wrapped), exactly as sim.New takes them.
	Graph    *graph.Graph
	Handlers []sim.Handler
	// Honest is the set of vertices whose outputs the run waits for.
	Honest graph.Set
	// LinkFaults, when non-nil, applies per-edge Byzantine link failures on
	// every node's send path: each message may be dropped, duplicated, or
	// delayed by Fate.Delay milliseconds before it joins a frame — the same
	// per-message rule set the simulator enforces at its pool boundary.
	LinkFaults *linkfault.Set
	// Observer, when non-nil, receives every node's runtime events. It is
	// shared across concurrent node runners and must be goroutine-safe.
	Observer sim.Observer
}

// DefaultTimeout caps a run whose context has no deadline. A run that
// times out returns the partial outcome with Decided false.
const DefaultTimeout = 60 * time.Second

// Outcome reports a cluster run.
type Outcome struct {
	// Outputs holds the decisions of the honest vertices that decided;
	// Decided reports whether all of them did before shutdown.
	Outputs map[int]float64
	Decided bool
	// Deliveries, Sent and Frames aggregate the per-node counters: messages
	// delivered, messages sent and frames written (one frame carries a
	// burst's messages to one destination). ByKind breaks sends down per
	// payload kind.
	Deliveries int
	Sent       int
	Frames     int
	ByKind     map[string]int
	// Queue aggregates the transport's bounded per-edge queue accounting:
	// backpressure waits, shed frames and the depth high-water mark.
	Queue QueueStats
	// Runtime names the transport that executed the run.
	Runtime string
}

// RunLoopback executes the spec in process: the same Mux fleet as RunTCP,
// each directed edge one net.Pipe of a memory network instead of one TCP
// connection.
func RunLoopback(ctx context.Context, spec Spec) (*Outcome, error) {
	mem := newMemNetwork()
	return run(ctx, spec, medium{name: "loopback", listen: mem.listen, dial: mem.dial})
}

// RunTCP executes the spec over localhost TCP sockets: every vertex gets
// its own listener on an ephemeral port, ports are discovered in-process,
// and each directed edge becomes one TCP connection dialed by the sender
// (a Mux fleet carrying instance 0, see tcp.go).
func RunTCP(ctx context.Context, spec Spec) (*Outcome, error) {
	return run(ctx, spec, medium{name: "tcp", listen: listenTCP, dial: dialTCP})
}

// Runtimes lists the available cluster transports.
func Runtimes() []string { return []string{"loopback", "tcp"} }

// ByName resolves a cluster transport runner.
func ByName(name string) (func(context.Context, Spec) (*Outcome, error), error) {
	switch name {
	case "loopback":
		return RunLoopback, nil
	case "tcp":
		return RunTCP, nil
	default:
		return nil, fmt.Errorf("cluster: unknown runtime %q (valid values are: %v)", name, Runtimes())
	}
}

func (s Spec) validate() error {
	if s.Graph == nil {
		return errors.New("cluster: spec needs a graph")
	}
	if len(s.Handlers) != s.Graph.N() {
		return fmt.Errorf("cluster: %d handlers for %d nodes", len(s.Handlers), s.Graph.N())
	}
	for i, h := range s.Handlers {
		if h == nil {
			return fmt.Errorf("cluster: handler %d is nil", i)
		}
		if h.ID() != i {
			return fmt.Errorf("cluster: handler at index %d has ID %d", i, h.ID())
		}
	}
	return nil
}

type decision struct {
	id    int
	value float64
}

// run is the shared harness: validate the spec, build the fleet on the
// medium, build nodes over its Muxes, start it, start every node, wait
// for the honest set to decide (or the context to end), then tear
// everything down and aggregate. The spec is validated before anything
// binds, so an invalid spec binds nothing; from there every return stops
// the fleet.
func run(ctx context.Context, spec Spec, md medium) (*Outcome, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	fl, err := newFleet(spec.Graph, md)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	n := spec.Graph.N()
	decisions := make(chan decision, n)
	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{
			ID:         i,
			Graph:      spec.Graph,
			Handler:    spec.Handlers[i],
			Out:        fl[i].mux,
			LinkFaults: spec.LinkFaults,
			Observer:   spec.Observer,
			OnDecide:   func(id int, x float64) { decisions <- decision{id, x} },
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	fl.start(runCtx, nodes)
	for _, nd := range nodes {
		nd.Start(nil)
	}

	// Wait for every honest vertex to decide. Faulty vertices may never
	// decide (Silent, Crash) — they are not waited for, matching the
	// simulator's semantics.
	outputs := make(map[int]float64, spec.Honest.Count())
	want := spec.Honest.Count()
	decided := 0
	var ctxErr error
collect:
	for decided < want {
		select {
		case d := <-decisions:
			if spec.Honest.Has(d.id) {
				outputs[d.id] = d.value
				decided++
			}
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break collect
		}
	}

	// Shut down: cancel the fleet, whose queues then refuse instead of
	// blocking, close every mailbox — a runner stops at its next take, a
	// poster parked at a full box leaves — then join the readers.
	cancelRun()
	for _, nd := range nodes {
		nd.Close()
	}
	fl.stop()

	// A deadline can win the select race against a decision that already
	// landed in the buffered channel. No runner is left, so all OnDecide
	// sends are complete (the channel's capacity is n): drain it
	// and credit decisions that beat the deadline.
	for drained := false; !drained; {
		select {
		case d := <-decisions:
			if spec.Honest.Has(d.id) {
				if _, dup := outputs[d.id]; !dup {
					outputs[d.id] = d.value
					decided++
				}
			}
		default:
			drained = true
		}
	}

	out := &Outcome{
		Outputs: outputs,
		Decided: decided == want,
		ByKind:  make(map[string]int),
		Queue:   fl.queueStats(),
		Runtime: md.name,
	}
	for _, nd := range nodes {
		st := nd.Stats()
		out.Deliveries += st.Delivered
		out.Sent += st.Sent
		out.Frames += st.Frames
		for k, c := range st.ByKind {
			out.ByKind[k] += c
		}
	}
	for _, nd := range nodes {
		if err := nd.Err(); err != nil {
			return out, fmt.Errorf("cluster (%s): %w", md.name, err)
		}
	}
	// Cancellation (as opposed to an elapsed deadline) means the caller
	// aborted the run: report it. A deadline with missing decisions is the
	// livelock-analog of the simulator's undecided quiescence and comes
	// back as a non-error outcome with Decided == false.
	if ctxErr != nil && errors.Is(ctxErr, context.Canceled) {
		return out, ctxErr
	}
	return out, nil
}

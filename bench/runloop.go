package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro"
)

// runLoop is the one-shot and simulator workloads once set up: a single
// load goroutine that runs the scenario back to back, Scenario.Seed
// advancing by one per run.
type runLoop struct {
	w           workload
	gen         generated
	inputSpread float64
}

// oneshotTimeout bounds one RunOn(ctx, "tcp").
const oneshotTimeout = 30 * time.Second

// setupRunLoop materialises the graph and inputs and asserts the 3-reach
// condition the workload's guarantee rests on. torus:32:32 is exempt: the
// check enumerates fault sets against reach sets and does not finish in
// minutes at n=1024, and the iterative baseline does not rest on it. The
// one-shot workload also completes a first connection round: a one-round
// run over the tcp runtime, which is listen + dial every edge + teardown.
func setupRunLoop(w workload, gen generated) (*runLoop, error) {
	// The instance factory is the public set-up call: it materialises the
	// scenario and runs the protocol's builder once (for BW, bw.NewProto).
	fac, err := repro.NewInstanceFactory(gen.scenario)
	if err != nil {
		return nil, err
	}
	g, inputs := fac.Graph(), fac.Inputs()
	if g.N() <= 64 {
		if ok, _ := repro.Check3Reach(g, gen.scenario.F); !ok {
			return nil, fmt.Errorf("%s: %s violates 3-reach for f=%d", w.name, w.graph, gen.scenario.F)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for v, x := range inputs {
		if v != gen.byz {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
	}
	if w.kind == oneshotLoop {
		if _, err := connectProbe(gen.scenario); err != nil {
			return nil, err
		}
	}
	return &runLoop{w: w, gen: gen, inputSpread: hi - lo}, nil
}

// connectProbe runs one round of the (trivial) iterative machine over the
// tcp runtime on the scenario's graph: nearly pure connection set-up and
// teardown.
func connectProbe(s repro.Scenario) (time.Duration, error) {
	s.Protocol, s.Rounds, s.Faults = "iterative", 1, nil
	ctx, cancel := context.WithTimeout(context.Background(), oneshotTimeout)
	defer cancel()
	t0 := time.Now()
	r, err := s.RunOn(ctx, repro.RuntimeTCP)
	if err != nil {
		return 0, err
	}
	if !r.Decided {
		return 0, errors.New("bench: connection probe did not decide")
	}
	return time.Since(t0), nil
}

func (rl *runLoop) run(s repro.Scenario) (*repro.Result, error) {
	if rl.w.kind == simLoop {
		return s.Run()
	}
	ctx, cancel := context.WithTimeout(context.Background(), oneshotTimeout)
	defer cancel()
	return s.RunOn(ctx, repro.RuntimeTCP)
}

func (rl *runLoop) load(tl *timeline) []op {
	var ops []op
	s := rl.gen.scenario
	for {
		start := time.Now()
		i := tl.at(start)
		if i < 0 {
			return ops
		}
		s.Protocol = rl.w.protocolIn(tl.phases[i])
		var before spanTotals
		if tl.phases[i].traced {
			before = active.Load().totals()
		}
		r, err := rl.run(s)
		o := op{phase: i, due: start, end: time.Now(), err: err}
		if tl.phases[i].traced {
			// One load goroutine, so the spans recorded meanwhile are this
			// operation's own.
			o.spans = active.Load().totals().sub(before)
		}
		if err == nil {
			o.steps = r.Steps
			if rl.w.kind == oneshotLoop {
				o.steps = r.MessagesSent
			}
			// Judged here, between operations and after the clock stopped:
			// three comparisons, against keeping every Result (a map entry
			// per vertex) alive until the run ends.
			o.wrong = checkScalar(rl.w, rl.inputSpread, r)
		}
		ops = append(ops, o)
		s.Seed++
	}
}

func (rl *runLoop) counters() counters { return counters{} }

func (rl *runLoop) verify(ops []op) (failed int, wrong error) {
	for _, o := range ops {
		if o.err != nil || o.wrong != nil {
			failed++
		}
		wrong = errors.Join(wrong, o.wrong)
	}
	return failed, wrong
}

func (rl *runLoop) close() {}

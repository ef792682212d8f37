package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/service"
)

// fleetLinger is how long a decided instance keeps serving peers; the
// leak check waits twice this after load stops.
const fleetLinger = 250 * time.Millisecond

// fleet is an in-process service.Deploy fleet plus the client connections
// the closed loop drives it through.
type fleet struct {
	w       workload
	gen     generated
	dep     *service.Deployment
	clients []*service.Client // one per load goroutine, closed loop only
	oracle  fleetOracle
}

// firstDecisionWait bounds the set-up's first decision.
const firstDecisionWait = 30 * time.Second

// deployFleet is the service workloads' set-up: deploy the fleet, connect
// the clients and complete a first round trip on each connection, then
// carry one instance to its decision — which is what brings every peer
// connection of the fabric up. Deploying alone takes 150 to 500 µs and
// settles, per process, into one of two modes 50 % apart; to the first
// decision it is milliseconds and steady. traced also serves the ".traced"
// alias from the same fleet.
func deployFleet(w workload, gen generated, traced bool) (*fleet, error) {
	protocols := []string{w.protocol}
	if traced {
		protocols = append(protocols, w.protocol+tracedSuffix)
	}
	dep, err := service.Deploy(context.Background(), service.DeployConfig{
		Scenario:    gen.scenario,
		Protocols:   protocols,
		WithClients: w.kind == closedLoop,
		Linger:      fleetLinger,
	})
	if err != nil {
		return nil, err
	}
	fl := &fleet{w: w, gen: gen, dep: dep, oracle: newFleetOracle(w, gen)}
	if err := fl.connect(); err != nil {
		fl.close()
		return nil, err
	}
	return fl, nil
}

func (fl *fleet) connect() error {
	if fl.w.kind == openLoop {
		ctx, cancel := context.WithTimeout(context.Background(), firstDecisionWait)
		defer cancel()
		_, err := fl.dep.Daemons[fl.gen.order[0]].SubmitWait(ctx, fl.w.protocol)
		return err
	}
	for i := 0; i < fl.w.load; i++ {
		cl, err := service.Dial(fl.dep.ClientAddrs[fl.gen.order[i]], 0)
		if err != nil {
			return err
		}
		fl.clients = append(fl.clients, cl)
		if _, err := cl.Stats(); err != nil {
			return err
		}
	}
	watchdog := time.AfterFunc(firstDecisionWait, fl.closeClients)
	defer watchdog.Stop()
	_, err := fl.clients[0].SubmitWait(fl.w.protocol)
	return err
}

func (fl *fleet) closeClients() {
	for _, cl := range fl.clients {
		cl.Close()
	}
}

func (fl *fleet) close() {
	fl.closeClients()
	fl.dep.Close()
}

func (fl *fleet) counters() counters {
	var c counters
	for _, d := range fl.dep.Daemons {
		s := d.Snapshot()
		c.frames += s.Queue.Enqueued
		c.waits += s.Queue.Waits
		c.shed += s.Queue.Shed
		c.late += s.LateFrames
		c.pendingShed += s.PendingShed
		c.refused += s.Refused
		c.bad += s.BadFrames
		if s.Queue.MaxDepth > c.depthMax {
			c.depthMax = s.Queue.MaxDepth
		}
	}
	return c
}

// active counts instances still live at the honest daemons. The Byzantine
// vertex is left out: its adversary-wrapped machines need never decide, so
// what it keeps alive is its own affair, not a leak in the service.
func (fl *fleet) active() (n int64) {
	for _, v := range fl.gen.order {
		n += fl.dep.Daemons[v].Snapshot().Active
	}
	return n
}

func (fl *fleet) load(tl *timeline) []op {
	if fl.w.kind == openLoop {
		return fl.loadOpen(tl)
	}
	return fl.loadClosed(tl)
}

// loadClosed runs one closed-loop client per connection: submit, wait for
// the decision at the submitting vertex, repeat.
func (fl *fleet) loadClosed(tl *timeline) []op {
	perClient := make([][]op, len(fl.clients))
	// A decision that never comes must not hang the run: past the grace
	// period the sessions are cut and the stuck operations count as failed.
	watchdog := time.AfterFunc(time.Until(tl.end())+openWaitTimeout, fl.closeClients)
	defer watchdog.Stop()
	var wg sync.WaitGroup
	for c, cl := range fl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Now()
				i := tl.at(start)
				if i < 0 {
					return
				}
				dec, err := cl.SubmitWait(fl.w.protocolIn(tl.phases[i]))
				perClient[c] = append(perClient[c], op{
					phase: i, due: start, end: time.Now(),
					elapsedMS: dec.ElapsedMS, inst: dec.Inst, err: err,
				})
				if err != nil {
					return // the connection is a session; a failed one is over
				}
			}
		}()
	}
	wg.Wait()
	var ops []op
	for _, p := range perClient {
		ops = append(ops, p...)
	}
	return ops
}

// openWaitTimeout bounds how long, past the timeline's end, a waiter stays
// parked on an instance; one that has not decided by then counts as failed.
const openWaitTimeout = 20 * time.Second

// loadOpen is the open loop: one scheduler goroutine submits on a fixed,
// evenly spaced schedule whatever has or has not completed, round-robin
// over the seed-shuffled daemons, and parks one waiter per outstanding
// instance. Latency runs from the instant a submit was due.
func (fl *fleet) loadOpen(tl *timeline) []op {
	var (
		mu  sync.Mutex
		ops []op
		wg  sync.WaitGroup
	)
	record := func(o op) {
		mu.Lock()
		ops = append(ops, o)
		mu.Unlock()
	}
	ctx, cancel := context.WithDeadline(context.Background(), tl.end().Add(openWaitTimeout))
	defer cancel()
	n := 0
	for i, ph := range tl.phases {
		rate := ph.rate
		if rate == 0 {
			rate = fl.w.rate
		}
		gap := time.Duration(float64(time.Second) / rate)
		for due := tl.boundary(i); due.Before(tl.boundary(i + 1)); due = due.Add(gap) {
			time.Sleep(time.Until(due))
			d := fl.dep.Daemons[fl.gen.order[n%len(fl.gen.order)]]
			n++
			start := time.Now()
			inst, err := d.Submit(fl.w.protocolIn(ph))
			o := op{phase: i, due: due, late: start.Sub(due), submit: time.Since(start), inst: inst}
			if err != nil {
				o.err, o.end = err, time.Now()
				record(o)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				dec, err := d.Wait(ctx, inst)
				o.end, o.elapsedMS, o.err = time.Now(), dec.ElapsedMS, err
				record(o)
			}()
		}
	}
	wg.Wait()
	return ops
}

// oracleWait bounds the off-the-clock wait for one instance at one daemon.
const oracleWait = 10 * time.Second

// verify reads every submitted instance back at every honest daemon — the
// decisions ledger outlives retirement — and hands each set to the oracle.
func (fl *fleet) verify(ops []op) (failed int, wrong error) {
	ctx, cancel := context.WithTimeout(context.Background(), oracleWait)
	defer cancel()
	return fl.oracle.judge(ops, func(inst uint64) ([]service.Decision, error) {
		decs := make([]service.Decision, 0, len(fl.gen.order))
		for _, v := range fl.gen.order {
			dec, err := fl.dep.Daemons[v].Wait(ctx, inst)
			if err != nil {
				return nil, err
			}
			decs = append(decs, dec)
		}
		return decs, nil
	})
}

// judge counts the operations that failed — errored, not decided at every
// honest daemon, or decided wrongly — and collects what the oracle rejected.
func (o fleetOracle) judge(ops []op, fetch func(inst uint64) ([]service.Decision, error)) (failed int, wrong error) {
	for _, op := range ops {
		if op.err != nil {
			failed++
			continue
		}
		decs, err := fetch(op.inst)
		if err != nil {
			failed++
			continue
		}
		if err := o.check(decs); err != nil {
			failed++
			wrong = errors.Join(wrong, fmt.Errorf("instance %d: %w", op.inst, err))
		}
	}
	return failed, wrong
}

// fleetOracle judges one instance's decisions across the honest daemons.
type fleetOracle struct {
	protocol string
	n, f     int
	eps      float64
	inputs   []float64
	honest   map[int]bool
	lo, hi   float64 // hull of the honest inputs
}

func newFleetOracle(w workload, gen generated) fleetOracle {
	o := fleetOracle{
		protocol: w.protocol, n: len(gen.scenario.Inputs), f: gen.scenario.F, eps: w.eps,
		inputs: gen.scenario.Inputs, honest: make(map[int]bool),
		lo: math.Inf(1), hi: math.Inf(-1),
	}
	for _, v := range gen.order {
		o.honest[v] = true
		o.lo, o.hi = math.Min(o.lo, o.inputs[v]), math.Max(o.hi, o.inputs[v])
	}
	return o
}

// check applies the exact tier's contract to acs (every honest daemon
// holds the identical subset, of at least n−f origins, and an honest
// origin's entry is its input — hence inside the honest-input hull) and
// the approximate tier's to aad (spread below ε, every value in the hull).
func (o fleetOracle) check(decs []service.Decision) error {
	if len(decs) == 0 {
		return errors.New("no decisions to judge")
	}
	if o.protocol == "acs" {
		ref := decs[0].Vector
		if len(ref) < o.n-o.f {
			return fmt.Errorf("acs subset has %d origins, want at least %d", len(ref), o.n-o.f)
		}
		for origin, x := range ref {
			if o.honest[origin] && x != o.inputs[origin] {
				return fmt.Errorf("acs entry for honest origin %d is %g, its input is %g", origin, x, o.inputs[origin])
			}
		}
		for _, d := range decs[1:] {
			if len(d.Vector) != len(ref) {
				return errors.New("acs subsets differ in size between honest daemons")
			}
			for origin, x := range ref {
				if y, ok := d.Vector[origin]; !ok || y != x {
					return fmt.Errorf("acs subsets disagree on origin %d", origin)
				}
			}
		}
		return nil
	}
	vmin, vmax := math.Inf(1), math.Inf(-1)
	for _, d := range decs {
		vmin, vmax = math.Min(vmin, d.Value), math.Max(vmax, d.Value)
	}
	if vmin < o.lo || vmax > o.hi {
		return fmt.Errorf("decision range [%g, %g] leaves the honest-input hull [%g, %g]", vmin, vmax, o.lo, o.hi)
	}
	if vmax-vmin >= o.eps {
		return fmt.Errorf("decision spread %g not below eps %g", vmax-vmin, o.eps)
	}
	return nil
}

package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/service"
)

// The E16 throughput study: how many pipelined consensus instances per
// second a self-hosted daemon fleet sustains, per protocol, with the
// bounded-queue backpressure accounting that makes the number honest. One
// BenchRun cell per protocol; the report is BENCH_5.json.

// ServiceBenchConfig parameterizes one E16 measurement.
type ServiceBenchConfig struct {
	// Scenario is the fleet's shared base (graph, inputs, eps, seed). The
	// default is the committed examples/service.json shape: acs on clique:8.
	Scenario repro.Scenario
	// Protocols to measure, one cell each (default: the scenario's).
	Protocols []string
	// Duration is the measurement window per protocol (default 3s).
	Duration time.Duration
	// Concurrency is the number of closed-loop submit workers, spread
	// round-robin across the fleet's client planes (default 2 per daemon).
	Concurrency int
}

// DefaultServiceScenario is the committed service-tier base scenario.
func DefaultServiceScenario() repro.Scenario {
	return repro.Scenario{
		Name:     "service-clique8",
		Graph:    "clique:8",
		Protocol: "acs",
		InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 4},
		F:        1,
		Seed:     11,
	}
}

// RunServiceBench deploys an in-process fleet, drives closed-loop load
// through the JSON-lines client plane for the window, and reports one cell
// per protocol. Decisions counts completed submit→decide round trips at
// the submitting vertex; the queue columns aggregate the whole fleet's
// bounded-queue accounting over that protocol's window.
func RunServiceBench(ctx context.Context, cfg ServiceBenchConfig) (*BenchReport, error) {
	if cfg.Scenario.Graph == "" {
		cfg.Scenario = DefaultServiceScenario()
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []string{cfg.Scenario.Protocol}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}

	dep, err := service.Deploy(ctx, service.DeployConfig{
		Scenario:    cfg.Scenario,
		Protocols:   cfg.Protocols,
		WithClients: true,
		Linger:      500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2 * len(dep.Daemons)
	}

	report := &BenchReport{
		Suite: "service",
		Seed:  cfg.Scenario.Seed,
		Notes: []string{
			fmt.Sprintf("E16: closed-loop load, %d workers over %d daemons' client planes, %s window per protocol",
				cfg.Concurrency, len(dep.Daemons), cfg.Duration),
			"decisions count submit->decide round trips at the submitting vertex; waits/shed aggregate every daemon's bounded per-peer queues",
		},
	}

	for _, proto := range cfg.Protocols {
		cell, err := serviceBenchCell(ctx, dep, cfg, proto)
		if err != nil {
			return nil, fmt.Errorf("experiments: service bench %q: %w", proto, err)
		}
		report.Runs = append(report.Runs, cell)
	}
	totals := fleetQueueTotals(dep)
	report.Notes = append(report.Notes, fmt.Sprintf(
		"observed over the whole run: %d backpressure waits, %d shed frames (bounded per-peer queues; also on every daemon's /metrics)",
		totals.waits, totals.shed),
		"allocsPerFrame: whole-process heap allocs over the window / frames enqueued fleet-wide — an upper bound including client-plane and machine work")
	return report, nil
}

func serviceBenchCell(ctx context.Context, dep *service.Deployment, cfg ServiceBenchConfig, proto string) (BenchRun, error) {
	before := fleetQueueTotals(dep)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	var decisions atomic.Int64
	var firstErr atomic.Value

	wctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		addr := dep.ClientAddrs[w%len(dep.ClientAddrs)]
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			cl, err := service.Dial(addr, 0)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer cl.Close()
			go func() { // end the blocking round trip at window close
				<-wctx.Done()
				cl.Close()
			}()
			for wctx.Err() == nil {
				if _, err := cl.SubmitWait(proto); err != nil {
					if wctx.Err() == nil {
						firstErr.CompareAndSwap(nil, err)
					}
					return
				}
				decisions.Add(1)
			}
		}(addr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return BenchRun{}, err
	}
	dec := decisions.Load()
	if dec == 0 {
		return BenchRun{}, fmt.Errorf("no instance decided inside the %s window", cfg.Duration)
	}

	// Let in-flight retirements settle so the queue delta is the window's.
	time.Sleep(100 * time.Millisecond)
	after := fleetQueueTotals(dep)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	cell := BenchRun{
		Name:      fmt.Sprintf("%s-%s", cfg.Scenario.Name, proto),
		Runtime:   "service",
		Protocol:  proto,
		N:         len(dep.Daemons),
		F:         cfg.Scenario.F,
		Ms:        float64(elapsed) / float64(time.Millisecond),
		Decisions: dec,
		PerSec:    float64(dec) / elapsed.Seconds(),
		Waits:     after.waits - before.waits,
		Shed:      after.shed - before.shed,
		Decided:   true,
		Valid:     true,
	}
	// Whole-process allocations over the window per frame the fleet
	// enqueued: an upper bound (client plane, machines, GC assist all
	// count), honest about everything the service does per frame.
	if enq := after.enqueued - before.enqueued; enq > 0 {
		cell.AllocsPerFrame = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(enq)
	}
	return cell, nil
}

type queueTotals struct{ waits, shed, enqueued int64 }

func fleetQueueTotals(dep *service.Deployment) queueTotals {
	var t queueTotals
	for _, d := range dep.Daemons {
		s := d.Snapshot()
		t.waits += s.Queue.Waits
		t.shed += s.Queue.Shed + s.PendingShed
		t.enqueued += s.Queue.Enqueued
	}
	return t
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/transport"
)

// sloP90MS is the latency limit client.slo_rate_per_s holds the open loop
// to: the highest stepped rate whose p90 stays within it, with nothing
// failed, counts as sustained.
const sloP90MS = 40.0

// lateLimitMS marks an open-loop pass invalid: a generator that runs later
// than this (p99) was not offering the schedule it claims.
const lateLimitMS = 5.0

func every(phaseStat) bool { return true }

// aggregate sums the phases selected by keep.
func aggregate(phases []phaseStat, keep func(phaseStat) bool) phaseStat {
	var sum phaseStat
	for _, p := range phases {
		if !keep(p) {
			continue
		}
		sum.wall += p.wall
		sum.cpu += p.cpu
		sum.gc += p.gc
		sum.mallocs += p.mallocs
		sum.allocBytes += p.allocBytes
		sum.ctr = sum.ctr.add(p.ctr)
		sum.spans = sum.spans.add(p.spans)
		sum.ops = append(sum.ops, p.ops...)
		sum.done += p.done
		sum.failed += p.failed
	}
	return sum
}

// tracedRun is a per-layer pass in progress: what it measured, and the
// metric values and spans it has derived so far.
type tracedRun struct {
	cfg    runConfig
	gen    generated
	fl     *fleet // nil for the run loops
	budget cellBudget
	began  time.Time

	ex execution
	// u and t sum the untraced and the traced windows. Counters, client
	// and Go-runtime numbers come from u, machine spans from t.
	u, t phaseStat
	// frames is the frames one decision puts on the wire; uCPU the
	// untraced CPU nanoseconds one decision costs.
	frames, uCPU float64

	vals  map[string]float64
	spans []span
}

// tracedPass is the per-layer run: untraced and traced windows alternate on
// one set-up (the difference is the tracing overhead), the open loop steps
// through its ladder, and then each layer is costed alone on the corpus of
// messages the traced windows sampled.
func tracedPass(cfg runConfig, gen generated, e env, total time.Duration) (map[string]float64, execution, error) {
	r := &tracedRun{cfg: cfg, gen: gen, budget: budgetFor(cfg.quick), began: time.Now(), vals: make(map[string]float64)}
	r.fl, _ = e.(*fleet)
	w := cfg.w

	if r.fl != nil && len(r.fl.clients) > 0 {
		// The client plane on an idle fleet: one stats round trip.
		rtts := make([]float64, 200)
		for i := range rtts {
			t0 := time.Now()
			if _, err := r.fl.clients[0].Stats(); err != nil {
				return nil, execution{}, err
			}
			rtts[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		r.vals["service.client_rtt_us"] = median(rtts)
	}

	r.ex = execute(e, tracedPhases(total, w), true)
	r.u = aggregate(r.ex.phases, func(p phaseStat) bool { return !p.warm && !p.traced && p.rate == 0 })
	r.t = aggregate(r.ex.phases, func(p phaseStat) bool { return p.traced })
	if len(r.u.ops) == 0 || len(r.t.ops) == 0 {
		return nil, execution{}, fmt.Errorf("%s: traced pass completed no operation (untraced %d, traced %d)", w.name, len(r.u.ops), len(r.t.ops))
	}
	r.uCPU = float64(r.u.cpu) / r.u.done
	r.vals["tracing.overhead_share"] = ratio(r.t.cpuMS(), r.u.cpuMS()) - 1
	r.spans = rootSpans(w, r.began, r.ex)

	if err := r.client(); err != nil {
		return nil, execution{}, err
	}
	r.counters()
	machineShare := r.machines()
	r.goRuntime()
	if w.kind == simLoop {
		if err := r.simulator(); err != nil {
			return nil, execution{}, err
		}
	}
	livePath := 0.0
	if w.kind != simLoop {
		var err error
		if livePath, err = r.livePath(); err != nil {
			return nil, execution{}, err
		}
	}
	if err := setupCells(w, gen, r.vals); err != nil {
		return nil, execution{}, err
	}
	r.vals["budget.machine_share"] = machineShare
	r.vals["budget.live_path_share"] = livePath
	r.vals["budget.unexplained_share"] = 1 - machineShare - livePath

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.vals["go.heap_live_mb_end"] = float64(m.HeapAlloc) / (1 << 20)
	r.vals["go.rss_peak_mb"] = rssPeakMB()

	fmt.Fprintf(cfg.log, "%s seed=%d traced: %d untraced + %d traced decisions over windows of %s; machine spans are aggregated per workload (the public API gives the wrapper no instance id)\n",
		w.name, cfg.seed, len(r.u.ops), len(r.t.ops), r.ex.phases[1].dur)
	if cfg.outDir != "" {
		if err := writeTrace(cfg.outDir, w.name, r.spans); err != nil {
			return nil, execution{}, err
		}
	}
	return r.vals, r.ex, nil
}

// client derives the client-side diagnostics from the untraced windows.
func (r *tracedRun) client() error {
	w := r.cfg.w
	lat := latencies([]phaseStat{r.u})
	r.vals["client.decide_ms_p90"] = quantile(lat, 0.90)
	r.vals["client.decide_ms_p99"] = quantile(lat, 0.99)
	r.vals["client.decide_ms_max"] = quantile(lat, 1)
	if r.fl == nil {
		return nil
	}
	var elapsed, lates, submits []float64
	for _, o := range r.u.ops {
		elapsed = append(elapsed, o.elapsedMS)
		lates = append(lates, ms(o.late))
		submits = append(submits, float64(o.submit)/float64(time.Microsecond))
	}
	r.vals["client.elapsed_ms_p50"] = median(elapsed)
	if w.kind == openLoop {
		sort.Float64s(lates)
		late := quantile(lates, 0.99)
		r.vals["client.sched_late_ms_p99"] = late
		r.vals["client.slo_rate_per_s"] = sloRate(w, r.ex.phases)
		if late > lateLimitMS {
			fmt.Fprintf(r.cfg.log, "  INVALID open-loop pass: the generator ran %.2f ms late (p99), limit %.1f ms\n", late, lateLimitMS)
		}
	} else {
		// Closed-loop load goes through the client plane and never sees
		// Daemon.Submit; probe it directly.
		probe, err := submitProbe(r.fl)
		if err != nil {
			return err
		}
		r.ex.ops = append(r.ex.ops, probe...)
		submits = submits[:0]
		for _, o := range probe {
			submits = append(submits, float64(o.submit)/float64(time.Microsecond))
		}
	}
	r.vals["service.submit_us_p50"] = median(submits)
	return nil
}

// counters reads the fleet's counters off the window boundaries, and the
// frames a one-shot run reports sending.
func (r *tracedRun) counters() {
	if r.cfg.w.kind == oneshotLoop {
		r.frames = meanSteps(r.u.ops)
		r.vals["cluster.frames_per_decision"] = r.frames
	}
	if r.fl == nil {
		return
	}
	r.frames = float64(r.u.ctr.frames) / r.u.done
	whole := aggregate(r.ex.phases, every)
	r.vals["cluster.frames_per_decision"] = r.frames
	r.vals["cluster.queue_waits_per_decision"] = float64(r.u.ctr.waits) / r.u.done
	r.vals["service.late_frames_per_decision"] = float64(r.u.ctr.late) / r.u.done
	r.vals["cluster.queue_shed"] = float64(whole.ctr.shed)
	r.vals["cluster.queue_depth_max"] = float64(whole.ctr.depthMax)
	r.vals["service.pending_shed"] = float64(whole.ctr.pendingShed)
	r.vals["service.refused"] = float64(whole.ctr.refused)
	r.vals["service.bad_frames"] = float64(whole.ctr.bad)
}

// meanSteps is the mean deliveries (sim) or frames sent (one-shot) per run.
func meanSteps(ops []op) float64 {
	sum := 0.0
	for _, o := range ops {
		sum += float64(o.steps)
	}
	return sum / float64(len(ops))
}

// machines turns the traced windows' spans into the machine metrics and
// returns the machines' share of the CPU.
func (r *tracedRun) machines() (share float64) {
	spans, decisions, cpu := r.t.spans, r.t.done, float64(r.t.cpu)
	if r.fl == nil {
		// A run loop's operations carry their own spans, which keeps runs
		// that straddle a window boundary out of the per-decision figures.
		// Their CPU is their wall time scaled by the windows' CPU-to-wall
		// ratio (the GC runs beside the one load goroutine).
		spans, decisions = spanTotals{}, float64(len(r.t.ops))
		wall := 0.0
		for _, o := range r.t.ops {
			spans = spans.add(o.spans)
			wall += float64(o.end.Sub(o.due))
		}
		cpu = wall * ratio(float64(r.t.cpu), float64(r.t.wall))
		if r.cfg.w.kind == simLoop {
			r.vals["sim.runner_ns_per_delivery"] = ratio(wall-float64(spans.machineNS()), meanSteps(r.t.ops)*decisions)
		}
	}
	share = ratio(float64(spans.machineNS()), cpu)
	proto := r.cfg.w.protocol
	p := "machine." + proto
	r.vals[p+".deliver_ns_mean"] = ratio(float64(spans.machineNS()-spans.ns[kindStart]), float64(spans.deliveries()))
	r.vals[p+".deliveries_per_decision"] = float64(spans.deliveries()) / decisions
	r.vals[p+".cpu_share"] = share
	switch proto {
	case "acs":
		r.vals["machine.acs.rbc_ns_mean"] = spans.meanNS(kindRBC)
		r.vals["machine.acs.aba_ns_mean"] = spans.meanNS(kindABA)
	case "aad":
		r.vals["machine.aad.rbc_ns_mean"] = spans.meanNS(kindRBC)
	case "bw":
		r.vals["machine.bw.val_ns_mean"] = spans.meanNS(kindBWVal)
		r.vals["machine.bw.complete_ns_mean"] = spans.meanNS(kindBWComplete)
	}
	for k := spanKind(0); k < numKinds; k++ {
		if spans.count[k] > 0 {
			r.spans = append(r.spans, span{
				Name: "machine:" + proto + ":" + kindNames[k], ID: len(r.spans) + 1, Parent: 1,
				End: time.Since(r.began).Microseconds(), Count: spans.count[k], SumNS: spans.ns[k],
			})
		}
	}
	return share
}

func (r *tracedRun) goRuntime() {
	r.vals["go.allocs_per_decision"] = float64(r.u.mallocs) / r.u.done
	r.vals["go.alloc_kb_per_decision"] = float64(r.u.allocBytes) / 1024 / r.u.done
	r.vals["go.gc_cpu_share"] = ratio(float64(r.u.gc), float64(r.u.cpu))
	r.vals["go.goroutines_peak"] = float64(r.ex.goroutinesPeak)
}

// addCell files a micro cell's numbers and its span.
func (r *tracedRun) addCell(c cell) {
	c.into(r.vals)
	r.spans = append(r.spans, span{
		Name: "cell:" + c.metric, ID: len(r.spans) + 1, Parent: 1,
		Start: c.start.Sub(r.began).Microseconds(), End: c.end.Sub(r.began).Microseconds(),
		Value: c.perItem, Unit: "ns",
	})
}

func (r *tracedRun) simulator() error {
	r.vals["sim.deliveries_per_s"] = meanSteps(r.u.ops) * r.u.perSec()
	r.addCell(r.budget.poolCell())
	// The first traced run's step count: an exact count that repeats bit
	// for bit for a fixed seed, unlike a per-window mean, which moves with
	// how many runs fit.
	first := r.t.ops[0]
	for _, o := range r.t.ops {
		if o.due.Before(first.due) {
			first = o
		}
	}
	r.vals["sim.steps_per_decision"] = float64(first.steps)
	var err error
	r.vals["sim.parallel_w2_speedup"], err = parallelSpeedup(r.gen.scenario.Seed)
	return err
}

// livePath costs every live-tier layer per frame on the corpus the traced
// wrappers sampled, and returns the share of a decision's CPU those
// per-frame costs explain.
func (r *tracedRun) livePath() (share float64, err error) {
	w := r.cfg.w
	tr := active.Load()
	tr.mu.Lock()
	msgs := append([]transport.Message(nil), tr.corpus...)
	tr.mu.Unlock()
	if len(msgs) < readBatch {
		return 0, fmt.Errorf("%s: traced windows sampled only %d messages", w.name, len(msgs))
	}
	inst := corpusInst
	if w.kind == oneshotLoop {
		inst = 0
	}
	frames, err := encodeCorpus(msgs, inst)
	if err != nil {
		return 0, err
	}
	bytes := 0
	for _, f := range frames {
		bytes += len(f) + 4 // the stream's length prefix
	}
	r.vals["wire.bytes_per_frame"] = float64(bytes) / float64(len(frames))
	r.vals["wire.bytes_per_decision"] = r.vals["wire.bytes_per_frame"] * r.frames

	cells, err := r.budget.wireCells(msgs, frames, inst)
	if err != nil {
		return 0, err
	}
	g, err := repro.NamedGraph(w.graph)
	if err != nil {
		return 0, err
	}
	for _, f := range []func() (cell, error){
		func() (cell, error) { return r.budget.nodeCell(g, msgs, inst) },
		func() (cell, error) { return r.budget.muxCell(frames) },
		r.budget.queueDrainCell,
		r.budget.dispatchCell,
	} {
		c, err := f()
		if err != nil {
			return 0, err
		}
		cells = append(cells, c)
	}
	for _, c := range cells {
		r.addCell(c)
	}
	if w.kind == oneshotLoop {
		probes := make([]float64, 5)
		for i := range probes {
			d, err := connectProbe(r.gen.scenario)
			if err != nil {
				return 0, err
			}
			probes[i] = ms(d)
		}
		r.vals["cluster.oneshot_connect_ms"] = median(probes)
	}
	// The node loop cell already contains the decode; the dispatcher is on
	// the service path only.
	perFrame := r.vals["wire.encode_ns_per_frame"] + r.vals["wire.write_ns_per_frame"] +
		r.vals["wire.read_ns_per_frame"] + r.vals["cluster.queue_drain_ns_per_frame"] +
		r.vals["node.loop_ns_per_frame"]
	if r.fl != nil {
		perFrame += r.vals["service.dispatch_ns_per_frame"]
	}
	return ratio(perFrame*r.frames, r.uCPU), nil
}

// rootSpans opens the trace: span 1 is the workload, then one root span per
// operation (id, due, start, end).
func rootSpans(w workload, began time.Time, ex execution) []span {
	spans := []span{{Name: "workload:" + w.name, ID: 1, End: time.Since(began).Microseconds()}}
	for _, o := range ex.ops {
		spans = append(spans, span{
			Name: "op", ID: len(spans) + 1, Parent: 1,
			DueUS:  o.due.Sub(began).Microseconds(),
			Start:  o.due.Add(o.late).Sub(began).Microseconds(),
			End:    o.end.Sub(began).Microseconds(),
			Failed: o.err != nil || o.wrong != nil,
		})
	}
	return spans
}

// sloRate is the highest offered rate — the workload's own or a ladder
// step — whose p90 met the limit with nothing failed. Latency is pooled
// over every operation due in the step, however late it decided, so a
// backlog that grows shows as a p90 blow-up within the step.
func sloRate(w workload, phases []phaseStat) float64 {
	byRate := map[float64][]phaseStat{}
	for _, p := range phases {
		if p.warm || p.traced {
			continue
		}
		r := p.rate
		if r == 0 {
			r = w.rate
		}
		byRate[r] = append(byRate[r], p)
	}
	best := 0.0
	for r, ps := range byRate {
		all := aggregate(ps, every)
		met := quantile(latencies(ps), 0.90) <= sloP90MS && all.failed == 0 && len(all.ops) > 0
		if met && r > best {
			best = r
		}
	}
	return best
}

// submitProbe times Daemon.Submit: open the instance, flood the OPEN.
func submitProbe(fl *fleet) ([]op, error) {
	const probes = 30
	ctx, cancel := context.WithTimeout(context.Background(), oracleWait)
	defer cancel()
	d := fl.dep.Daemons[fl.gen.order[0]]
	ops := make([]op, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		inst, err := d.Submit(fl.w.protocol)
		o := op{phase: -1, due: start, submit: time.Since(start), inst: inst}
		if err != nil {
			return nil, err
		}
		if _, err := d.Wait(ctx, inst); err != nil {
			return nil, err
		}
		o.end = time.Now()
		ops = append(ops, o)
	}
	return ops, nil
}

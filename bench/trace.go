package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/aba"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Tracing lives entirely in this directory: every protocol a workload uses
// is registered a second time under "<name>.traced", with a builder that
// wraps each machine in a handler whose Start/Deliver calls are timed
// spans. The program under test is not touched; a traced pass just asks for
// the alias. The public API hands the wrapper no instance id, so machine
// spans are aggregated per workload (by payload kind), not per operation.

// spanKind classifies a machine span by what was delivered.
type spanKind int

const (
	kindStart spanKind = iota
	kindRBC
	kindABA
	kindBWVal
	kindBWComplete
	kindIter
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"start", "rbc", "aba", "bw-val", "bw-complete", "iter-val", "other"}

func kindOf(p transport.Payload) spanKind {
	switch p.(type) {
	case rbc.Msg:
		return kindRBC
	case aba.Msg:
		return kindABA
	case bw.ValPayload:
		return kindBWVal
	case bw.CompletePayload:
		return kindBWComplete
	case iterative.ValPayload:
		return kindIter
	}
	return kindOther
}

const (
	// corpusEvery samples one delivered message in this many, per machine,
	// into the frame corpus the wire/node/cluster micro cells replay.
	corpusEvery = 32
	corpusCap   = 4096
)

// tracer aggregates machine spans and keeps the sampled message corpus.
// Handlers on different event loops add concurrently, hence the atomics.
type tracer struct {
	ns    [numKinds]atomic.Int64
	count [numKinds]atomic.Int64

	mu     sync.Mutex
	corpus []transport.Message
}

// spanTotals is a point-in-time copy of a tracer's aggregates.
type spanTotals struct {
	ns, count [numKinds]int64
}

func (t *tracer) add(k spanKind, d time.Duration) {
	t.ns[k].Add(int64(d))
	t.count[k].Add(1)
}

func (t *tracer) sample(m transport.Message) {
	t.mu.Lock()
	if len(t.corpus) < corpusCap {
		t.corpus = append(t.corpus, m)
	}
	t.mu.Unlock()
}

func (t *tracer) totals() spanTotals {
	var s spanTotals
	for k := range s.ns {
		s.ns[k], s.count[k] = t.ns[k].Load(), t.count[k].Load()
	}
	return s
}

func (s spanTotals) sub(o spanTotals) spanTotals {
	for k := range s.ns {
		s.ns[k] -= o.ns[k]
		s.count[k] -= o.count[k]
	}
	return s
}

func (s spanTotals) add(o spanTotals) spanTotals {
	for k := range s.ns {
		s.ns[k] += o.ns[k]
		s.count[k] += o.count[k]
	}
	return s
}

// machineNS is the time spent inside machines; deliveries excludes Start.
func (s spanTotals) machineNS() (total int64) {
	for _, v := range s.ns {
		total += v
	}
	return total
}

func (s spanTotals) deliveries() (total int64) {
	for k, v := range s.count {
		if spanKind(k) != kindStart {
			total += v
		}
	}
	return total
}

func (s spanTotals) meanNS(k spanKind) float64 {
	return ratio(float64(s.ns[k]), float64(s.count[k]))
}

// active is the tracer the alias builders record into. One workload runs
// at a time per process, so a single slot is enough; it is a registration
// table's companion, set before a traced pass and read by the wrappers.
var active atomic.Pointer[tracer]

// tracedHandler times the wrapped machine's Start and Deliver.
type tracedHandler struct {
	inner repro.Handler
	tr    *tracer
	seen  uint32
}

func (h *tracedHandler) ID() int { return h.inner.ID() }

func (h *tracedHandler) Start(out *sim.Outbox) {
	t0 := time.Now()
	h.inner.Start(out)
	h.tr.add(kindStart, time.Since(t0))
}

func (h *tracedHandler) Deliver(m transport.Message, out *sim.Outbox) {
	k := kindOf(m.Payload)
	t0 := time.Now()
	h.inner.Deliver(m, out)
	h.tr.add(k, time.Since(t0))
	if h.seen++; h.seen%corpusEvery == 0 {
		h.tr.sample(m)
	}
}

func (h *tracedHandler) Output() (float64, bool) { return h.inner.Output() }

// Vector and History forward the optional decision-shape interfaces the
// service and cluster tiers look for on a machine.
func (h *tracedHandler) Vector() map[int]float64 {
	if vp, ok := h.inner.(interface{ Vector() map[int]float64 }); ok {
		return vp.Vector()
	}
	return nil
}

func (h *tracedHandler) History() []float64 {
	if hp, ok := h.inner.(interface{ History() []float64 }); ok {
		return hp.History()
	}
	return nil
}

const tracedSuffix = ".traced"

var registerOnce sync.Once

// registerTraced registers the "<p>.traced" aliases, once per process.
func registerTraced() {
	registerOnce.Do(func() {
		for _, p := range machineProtocols {
			inner, err := repro.ProtocolBuilder(p)
			if err != nil {
				panic(err) // a built-in protocol without a builder is a bug
			}
			build := tracedBuilder(inner)
			repro.Register(p+tracedSuffix, tracedSimRun(build))
			repro.RegisterBuilder(p+tracedSuffix, build)
		}
	})
}

func tracedBuilder(inner repro.BuilderFunc) repro.BuilderFunc {
	return func(g *repro.Graph, inputs []float64, opts repro.Options) (repro.HandlerFactory, error) {
		factory, err := inner(g, inputs, opts)
		if err != nil {
			return nil, err
		}
		tr := active.Load()
		if tr == nil {
			return nil, errors.New("bench: traced protocol used outside a traced pass")
		}
		return func(id int) (repro.Handler, error) {
			h, err := factory(id)
			if err != nil {
				return nil, err
			}
			return &tracedHandler{inner: h, tr: tr}, nil
		}, nil
	}
}

// tracedSimRun is the alias's simulator face: the same inline engine and
// policy registry Scenario.Run uses, over wrapped machines. It needs F, K
// and Eps set explicitly (builders expect normalized options, and the
// normalizer is not exported) and takes no faults — the sim workloads have
// none.
func tracedSimRun(build repro.BuilderFunc) repro.RunFunc {
	return func(g *repro.Graph, inputs []float64, opts repro.Options) (*repro.Result, error) {
		if opts.F < 1 || opts.K <= 0 || opts.Eps <= 0 || len(opts.Faults) > 0 || len(opts.LinkFaults) > 0 {
			return nil, errors.New("bench: traced sim run needs explicit f, k, eps and no faults")
		}
		factory, err := build(g, inputs, opts)
		if err != nil {
			return nil, err
		}
		handlers := make([]sim.Handler, g.N())
		honest := graph.EmptySet
		for i := range handlers {
			if handlers[i], err = factory(i); err != nil {
				return nil, err
			}
			honest = honest.Add(i)
		}
		policy, err := transport.NewPolicy(opts.Policy, opts.PolicyParams, opts.Seed)
		if err != nil {
			return nil, err
		}
		runner, err := sim.New(sim.Config{Graph: g, Policy: policy}, handlers)
		if err != nil {
			return nil, err
		}
		if err := runner.Run(); err != nil {
			return nil, err
		}
		res := &repro.Result{Honest: honest, Steps: runner.Steps(), MessagesSent: runner.Stats().Sent}
		res.Outputs, res.Decided = runner.Outputs(honest)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range inputs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		omin, omax := math.Inf(1), math.Inf(-1)
		for _, x := range res.Outputs {
			omin, omax = math.Min(omin, x), math.Max(omax, x)
		}
		if len(res.Outputs) > 0 {
			res.Spread = omax - omin
			res.ValidityOK = omin >= lo && omax <= hi
		}
		res.Converged = res.Decided && res.Spread < opts.Eps
		return res, nil
	}
}

// span is one line of the trace file. Root spans (one per operation) have
// no parent; machine spans are per-kind aggregates and micro-cell spans are
// one per cell, both children of the workload's own span.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	DueUS  int64   `json:"dueUs,omitempty"`
	Start  int64   `json:"startUs"`
	End    int64   `json:"endUs"`
	Count  int64   `json:"count,omitempty"`
	SumNS  int64   `json:"sumNs,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Unit   string  `json:"unit,omitempty"`
	Failed bool    `json:"failed,omitempty"`
}

// writeTrace flushes the in-memory spans to <dir>/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("bench: write %s: %w", path, err)
		}
	}
	return w.Flush()
}

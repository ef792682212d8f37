package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/bw"
	"repro/internal/cluster"
	"repro/internal/cond"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The micro cells cost one layer at a time, from outside, by timing calls
// into its public functions. The wire, node and mux cells replay the
// workload's own messages (the corpus the traced wrappers sampled), so
// acs's small frames and BW's path-carrying frames are costed separately.

// cellTime is how long one micro cell measures; benchFrames is how many
// frames the repo's own testing.B hooks run for.
const (
	cellTime    = 150 * time.Millisecond
	benchFrames = 1000000
)

// cellBudget scales both down for the smoke tests.
type cellBudget struct {
	time   time.Duration
	frames int
}

func budgetFor(quick bool) cellBudget {
	if quick {
		return cellBudget{time: cellTime / 15, frames: benchFrames / 50}
	}
	return cellBudget{time: cellTime, frames: benchFrames}
}

// cell is one micro measurement, named after the metric it yields and also
// written to the trace as a span.
type cell struct {
	metric       string // ns per frame (or per message)
	allocsMetric string // heap allocations per frame; "" when not reported
	start, end   time.Time
	perItem      float64
	allocs       float64
}

// into files the cell's numbers under their metric names.
func (c cell) into(vals map[string]float64) {
	vals[c.metric] = c.perItem
	if c.allocsMetric != "" {
		vals[c.allocsMetric] = c.allocs
	}
}

// timeCell calls round, which processes `items` frames per call, until the
// budgeted time has passed (after one discarded warming call).
func (b cellBudget) timeCell(metric string, items int, round func()) cell {
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := cell{metric: metric, start: time.Now()}
	rounds := 0
	for time.Since(c.start) < b.time {
		round()
		rounds++
	}
	c.end = time.Now()
	runtime.ReadMemStats(&after)
	n := float64(rounds * items)
	c.perItem = float64(c.end.Sub(c.start)) / n
	c.allocs = float64(after.Mallocs-before.Mallocs) / n
	return c
}

// corpusInst is the instance id stamped into service-workload corpus
// frames; the one-shot runtimes use instance 0.
const corpusInst = uint64(77<<10 | 3)

// encodeCorpus encodes the sampled messages the way the workload's runtime
// does.
func encodeCorpus(msgs []transport.Message, inst uint64) ([][]byte, error) {
	frames := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		f, err := wire.EncodeInstanceMessage(inst, m)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// loopReader serves one byte stream over and over: an endless peer.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// readBatch mirrors the transports' read-batch ceiling.
const readBatch = 64

// wireCells costs the codec and the frame I/O primitives on the corpus.
func (b cellBudget) wireCells(msgs []transport.Message, frames [][]byte, inst uint64) ([]cell, error) {
	n := len(frames)
	var cells []cell
	var failed error

	buf := wire.GetBuf()
	cells = append(cells, b.timeCell("wire.encode_ns_per_frame", n, func() {
		for _, m := range msgs {
			var err error
			if buf, err = wire.AppendInstanceMessage(buf[:0], inst, m); err != nil {
				failed = err
			}
		}
	}))
	wire.PutBuf(buf)

	decode := b.timeCell("wire.decode_ns_per_frame", n, func() {
		for _, f := range frames {
			if _, _, err := wire.DecodeInstanceMessage(f); err != nil {
				failed = err
			}
		}
	})
	decode.allocsMetric = "wire.decode_allocs_per_frame"
	cells = append(cells, decode)
	cells = append(cells, b.timeCell("wire.peek_ns_per_frame", n, func() {
		for _, f := range frames {
			if _, err := wire.PeekFrame(f); err != nil {
				failed = err
			}
		}
	}))

	var stream []byte
	cells = append(cells, b.timeCell("wire.write_ns_per_frame", n, func() {
		stream = stream[:0]
		for _, f := range frames {
			var err error
			if stream, err = wire.AppendRawFrame(stream, f); err != nil {
				failed = err
			}
		}
	}))

	fr := wire.NewFrameReader(&loopReader{data: stream})
	batch := make([][]byte, 0, readBatch)
	infos := make([]wire.FrameInfo, 0, readBatch)
	cells = append(cells, b.timeCell("wire.read_ns_per_frame", n, func() {
		for got := 0; got < n; got += len(batch) {
			var err error
			if batch, infos, err = fr.NextBatch(batch[:0], infos[:0], min(readBatch, n-got)); err != nil {
				failed = err
				return
			}
			for _, f := range batch {
				wire.PutBuf(f)
			}
		}
	}))
	return cells, failed
}

// countingHandler is an inert machine that counts deliveries and signals
// when a round's worth has arrived.
type countingHandler struct {
	id     int
	seen   int
	target int
	done   chan struct{}
}

func (h *countingHandler) ID() int                 { return h.id }
func (h *countingHandler) Start(*sim.Outbox)       {}
func (h *countingHandler) Output() (float64, bool) { return 0, false }
func (h *countingHandler) Deliver(transport.Message, *sim.Outbox) {
	if h.seen++; h.seen == h.target {
		h.seen = 0
		h.done <- struct{}{}
	}
}

type discardOut struct{}

func (discardOut) Send(_ int, frame []byte) error { wire.PutBuf(frame); return nil }

// nodeCell costs the instance event loop: slabs of corpus frames pushed
// into a node around an inert handler until all are delivered — a pooled
// copy of each frame (the node releases what it is given), the inbox pop,
// the decode and the Deliver call. The corpus is re-stamped onto one edge,
// because a node drops frames whose sender does not match their link.
func (b cellBudget) nodeCell(g *graph.Graph, msgs []transport.Message, inst uint64) (cell, error) {
	from := 0
	to := g.Out(from)[0]
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		m.From, m.To = from, to
		var err error
		if frames[i], err = wire.EncodeInstanceMessage(inst, m); err != nil {
			return cell{}, err
		}
	}
	h := &countingHandler{id: to, target: len(frames), done: make(chan struct{})}
	nd, err := node.New(node.Config{ID: to, Graph: g, Handler: h, Out: discardOut{}})
	if err != nil {
		return cell{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = nd.Run(ctx) // only an outbound failure errors, and the handler never sends
	}()
	defer func() { cancel(); wg.Wait() }()

	c := b.timeCell("node.loop_ns_per_frame", len(frames), func() {
		for i := 0; i < len(frames); {
			slab := node.GetSlab()
			for ; i < len(frames) && len(slab) < readBatch; i++ {
				slab = append(slab, node.Inbound{From: from, Frame: append(wire.GetBuf(), frames[i]...)})
			}
			nd.PushBatch(ctx, slab)
		}
		<-h.done
	})
	c.allocsMetric = "node.loop_allocs_per_frame"
	return c, nil
}

// muxCell streams the corpus one way between two cluster.Mux endpoints on
// 127.0.0.1: bounded queue, coalesced write, socket, batched read, peek.
func (b cellBudget) muxCell(frames [][]byte) (cell, error) {
	g := graph.Clique(2)
	var ls [2]net.Listener
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			if i > 0 {
				ls[0].Close()
			}
			return cell{}, err
		}
		ls[i] = l
	}
	var got atomic.Int64
	arrived := make(chan struct{}, 1)
	target := int64(len(frames))
	sink := func(count bool) func(int, [][]byte, []wire.FrameInfo) {
		return func(_ int, batch [][]byte, _ []wire.FrameInfo) {
			for _, f := range batch {
				wire.PutBuf(f)
			}
			if count && got.Add(int64(len(batch))) == target {
				got.Store(0)
				arrived <- struct{}{}
			}
		}
	}
	var muxes [2]*cluster.Mux
	for i := range muxes {
		m, err := cluster.NewMux(cluster.MuxConfig{
			ID: i, Graph: g, Listener: ls[i],
			Peers:        map[int]string{1 - i: ls[1-i].Addr().String()},
			OnFrameBatch: sink(i == 1),
		})
		if err != nil {
			return cell{}, err
		}
		muxes[i] = m
	}
	ctx, cancel := context.WithCancel(context.Background())
	for _, m := range muxes {
		m.Start(ctx)
	}
	defer func() {
		cancel()
		for _, m := range muxes {
			m.Stop()
		}
	}()
	var failed error
	c := b.timeCell("cluster.mux_ns_per_frame", len(frames), func() {
		for _, f := range frames {
			if err := muxes[0].Send(1, append(wire.GetBuf(), f...)); err != nil {
				failed = err
				return
			}
		}
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			failed = errors.New("bench: mux cell: frames did not arrive")
		}
	})
	return c, failed
}

var benchInit sync.Once

// testingCell runs one of the repo's exported testing.B hooks (the queue
// and the dispatcher keep their internals unexported) for a fixed number
// of frames.
func (b cellBudget) testingCell(metric string, f func(*testing.B)) (cell, error) {
	benchInit.Do(testing.Init)
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", b.frames)); err != nil {
		return cell{}, err
	}
	c := cell{metric: metric, start: time.Now()}
	r := testing.Benchmark(f)
	c.end = time.Now()
	if r.N == 0 {
		return cell{}, fmt.Errorf("bench: the %s cell did not run", metric)
	}
	c.perItem = float64(r.T.Nanoseconds()) / float64(r.N)
	c.allocs = float64(r.MemAllocs) / float64(r.N)
	return c, nil
}

func (b cellBudget) dispatchCell() (cell, error) {
	c, err := b.testingCell("service.dispatch_ns_per_frame", service.DispatchBench)
	c.allocsMetric = "service.dispatch_allocs_per_frame"
	return c, err
}

func (b cellBudget) queueDrainCell() (cell, error) {
	return b.testingCell("cluster.queue_drain_ns_per_frame", cluster.QueueDrainBench)
}

// poolPending is the standing backlog the pool cell churns against.
const poolPending = 16384

// poolCell costs transport.Pool on its own: Pick + Take + Add against a
// standing backlog of 16k messages under the random policy.
func (b cellBudget) poolCell() cell {
	pool := transport.NewPoolSized(nil, transport.NewStats(), poolPending)
	msgs := make([]transport.Message, poolPending)
	for i := range msgs {
		msgs[i] = transport.Message{From: i % 7, To: i % 5, Payload: bw.ValPayload{Round: 1}}
	}
	pool.AddAll(msgs)
	policy := transport.NewRandomPolicy(1)
	const round = 4096
	return b.timeCell("transport.pool_ns_per_msg", round, func() {
		for i := 0; i < round; i++ {
			m := pool.Take(policy.Pick(pool.View()))
			pool.Add(m)
		}
	})
}

// parallelSpeedup is inline wall time over parallel-engine (2 workers) wall
// time on BW over cycle:128 under fifo — the measurement the roadmap's
// engine-deletion item asks for. 0 when the build has no parallel engine.
func parallelSpeedup(seed int64) (float64, error) {
	has := false
	for _, name := range repro.EngineNames() {
		has = has || name == "parallel"
	}
	if !has {
		return 0, nil
	}
	s := repro.Scenario{
		Graph: "cycle:128", Protocol: "bw", InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 2},
		F: repro.FZero, K: 1, Eps: 0.6, Seed: seed, Policy: &repro.PolicySpec{Name: "fifo"},
	}
	wall := func(engine string, workers int) (time.Duration, error) {
		s.Engine, s.EngineWorkers = engine, workers
		t0 := time.Now()
		r, err := s.Run()
		if err != nil {
			return 0, err
		}
		if !r.Decided {
			return 0, errors.New("bench: parallel speedup run did not decide")
		}
		return time.Since(t0), nil
	}
	inline, err := wall("inline", 0)
	if err != nil {
		return 0, err
	}
	par, err := wall("parallel", 2)
	if err != nil {
		return 0, err
	}
	return ratio(float64(inline), float64(par)), nil
}

// medianMS is the median wall time of reps calls, in milliseconds.
func medianMS(reps int, f func() error) (float64, error) {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		out[i] = ms(time.Since(t0))
	}
	return median(out), nil
}

// setupCells splits set-up into the layers that do it.
func setupCells(w workload, gen generated, vals map[string]float64) error {
	const reps = 9
	var g *graph.Graph
	var err error
	if vals["graph.named_ms"], err = medianMS(reps, func() (err error) {
		g, err = graph.Named(w.graph)
		return err
	}); err != nil {
		return err
	}
	if vals["repro.materialize_ms"], err = medianMS(reps, func() error {
		_, _, err := gen.scenario.Materialize()
		return err
	}); err != nil {
		return err
	}
	if g.N() <= 64 {
		if vals["cond.check3reach_ms"], err = medianMS(reps, func() error {
			if ok, _ := cond.Check3Reach(g, gen.scenario.F); !ok {
				return fmt.Errorf("%s violates 3-reach", w.graph)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if w.protocol == "bw" {
		if vals["bw.newproto_ms"], err = medianMS(reps, func() error {
			_, err := bw.NewProto(g, gen.scenario.F, w.k, w.eps, 0)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

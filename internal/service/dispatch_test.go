package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// newDispatchHarness builds a daemon skeleton (routing table only, no
// fabric or planes) with one idle instance per id in insts, each wrapping a
// recording probe: a test dispatches from its own goroutine, which makes it
// the runner, so when dispatchBatch returns the probes hold exactly what
// dispatch delivered, in order.
func newDispatchHarness(t *testing.T, insts []uint64) (*Daemon, map[uint64]*probe) {
	t.Helper()
	g := graph.Clique(2)
	d := newSkeleton(g)
	byInst := make(map[uint64]*probe, len(insts))
	for _, inst := range insts {
		p := &probe{id: 1}
		if _, err := d.addIdle(g, inst, p, nullOut{}); err != nil {
			t.Fatal(err)
		}
		byInst[inst] = p
	}
	return d, byInst
}

// dispatchOne hands the dispatcher a 1-frame batch peeked the way the
// socket reader peeks it: a header that does not parse arrives marked Bad.
func dispatchOne(d *Daemon, from int, frame []byte) {
	info, err := wire.PeekFrame(frame)
	if err != nil {
		info = wire.FrameInfo{Bad: true}
	}
	d.dispatchBatch(from, [][]byte{frame}, []wire.FrameInfo{info})
}

// TestDispatchBatchFIFO pins the FIFO-preservation argument of the batch
// dispatcher: within one connection's batch, frames are processed in scan
// order and only maximal consecutive same-instance runs are grouped, so
// each instance receives its frames in exactly the per-link order they
// arrived — whatever the interleaving — and a bad frame in the middle is
// absorbed (counted, released) without disturbing its neighbors.
func TestDispatchBatchFIFO(t *testing.T) {
	const (
		instA = uint64(7<<10 | 1)
		instB = uint64(9<<10 | 0)
	)
	d, byInst := newDispatchHarness(t, []uint64{instA, instB})

	// An adversarial interleaving: runs of 1..3 frames, switching
	// instances, with a malformed frame wedged between two runs.
	pattern := []uint64{instA, instA, instB, instA, instB, instB, instB, instA, instA, instB}
	var frames [][]byte
	var infos []wire.FrameInfo
	var wantA, wantB []int
	for seq, inst := range pattern {
		if seq == 4 {
			frames = append(frames, []byte("not a frame"))
			infos = append(infos, wire.FrameInfo{Bad: true})
		}
		f, fi := probeFrame(t, inst, 0, 1, seq)
		frames = append(frames, f)
		infos = append(infos, fi)
		if inst == instA {
			wantA = append(wantA, seq)
		} else {
			wantB = append(wantB, seq)
		}
	}
	d.dispatchBatch(0, frames, infos)

	gotA := byInst[instA].seqsFrom(0)
	gotB := byInst[instB].seqsFrom(0)
	if fmt.Sprint(gotA) != fmt.Sprint(wantA) {
		t.Fatalf("instance A delivery order %v, want %v", gotA, wantA)
	}
	if fmt.Sprint(gotB) != fmt.Sprint(wantB) {
		t.Fatalf("instance B delivery order %v, want %v", gotB, wantB)
	}
	if got := d.badFr.Load(); got != 1 {
		t.Fatalf("badFrames = %d, want 1", got)
	}
}

// TestDispatchBatchPendingAndRetired pins the slow paths under batching:
// a run for an unknown instance lands in the pending buffer intact and in
// order; a run for a retired instance is dropped and counted, never
// buffered.
func TestDispatchBatchPendingAndRetired(t *testing.T) {
	const (
		instPend = uint64(11<<10 | 2)
		instGone = uint64(13<<10 | 3)
	)
	d, _ := newDispatchHarness(t, nil)
	d.shard(instGone).retired[instGone] = nil

	var frames [][]byte
	var infos []wire.FrameInfo
	for seq := 0; seq < 3; seq++ {
		f, fi := probeFrame(t, instPend, 0, 1, seq)
		frames = append(frames, f)
		infos = append(infos, fi)
	}
	for seq := 0; seq < 2; seq++ {
		f, fi := probeFrame(t, instGone, 0, 1, seq)
		frames = append(frames, f)
		infos = append(infos, fi)
	}
	d.dispatchBatch(0, frames, infos)

	sh := d.shard(instPend)
	sh.mu.Lock()
	pend := sh.pending[instPend]
	sh.mu.Unlock()
	if len(pend) != 3 {
		t.Fatalf("pending holds %d frames, want 3", len(pend))
	}
	for seq, in := range pend {
		_, m, err := wire.DecodeInstanceMessage(in.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Payload.(bw.ValPayload).Round; got != seq {
			t.Fatalf("pending[%d] carries seq %d, want %d", seq, got, seq)
		}
	}
	if got := d.lateFrames.Load(); got != 2 {
		t.Fatalf("lateFrames = %d, want 2", got)
	}
	gone := d.shard(instGone)
	gone.mu.Lock()
	leaked := len(gone.pending[instGone])
	gone.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("retired instance buffered %d pending frames", leaked)
	}
}

// TestDispatchAllocBudget pins what dispatch adds to a frame's allocation
// bill at nothing: a burst through dispatchBatch — grouping, routing, the
// mailbox and the runner's loop — allocates exactly what node.Deliver alone
// allocates on the same frames (the decode). Box slabs and frame buffers are
// all recycled, so dispatch cost cannot creep back in as GC pressure. The
// count is asserted in normal builds only: under -race sync.Pool drops a
// quarter of all releases on purpose (see wire.GetBuf), so there the
// benchmark bodies run for the detector's sake and the counts are logged.
func TestDispatchAllocBudget(t *testing.T) {
	dispatch := testing.Benchmark(DispatchBench).AllocsPerOp()
	alone := testing.Benchmark(deliverAloneBench).AllocsPerOp()
	if wire.RaceEnabled {
		t.Logf("dispatch %d, node.Deliver alone %d allocs/frame under -race, not asserted", dispatch, alone)
		return
	}
	if dispatch != alone {
		t.Fatalf("dispatch allocates %d allocs/frame steady state, node.Deliver alone %d: want equal", dispatch, alone)
	}
}

// deliverAloneBench is DispatchBench's frame through node.Deliver and
// nothing else: the allocation floor the dispatch path is held to.
func deliverAloneBench(b *testing.B) {
	g := graph.Clique(2)
	nd, err := node.New(node.Config{ID: 1, Graph: g, Handler: benchHandler{id: 1}, Out: nullOut{}})
	if err != nil {
		b.Fatal(err)
	}
	body, _ := probeFrame(b, 42<<10|1, 0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nd.Deliver(node.Inbound{From: 0, Frame: append(wire.GetBuf(), body...)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDispatchRouteOpenRace is the -race regression fence for the
// route/open/retire races: a fleet under concurrent submissions (OPEN
// floods racing protocol traffic through bufferPending and the mailbox
// hand-over in open) while injector goroutines hammer the same daemons' dispatchers
// with duplicate OPENs, protocol frames for decided-and-retiring
// instances, and malformed frames. Every submission must still decide —
// no frame lost where it matters — and the injected garbage must land in
// the right counters; the race detector and the pool discipline (a
// double-released frame is handed to two owners concurrently) do the
// rest.
func TestDispatchRouteOpenRace(t *testing.T) {
	s := testScenario()
	dep, _ := deploy(t, DeployConfig{Scenario: s, Linger: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const (
		submitters = 4
		perWorker  = 6
	)
	decided := make(chan uint64, submitters*perWorker)
	errs := make(chan error, submitters*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := dep.Daemons[(w+i)%len(dep.Daemons)]
				dec, err := d.SubmitWait(ctx, "")
				if err != nil {
					errs <- fmt.Errorf("worker %d submit %d: %w", w, i, err)
					return
				}
				decided <- dec.Inst
			}
		}(w)
	}

	// Injectors race the dispatchers while the fleet is busy: duplicate
	// OPENs for instances in every lifecycle state, protocol frames aimed
	// at instances that are lingering or retired, and junk bytes.
	stop := make(chan struct{})
	var injWG sync.WaitGroup
	var badInjected, lateInjected atomic.Int64
	for k := 0; k < 2; k++ {
		injWG.Add(1)
		go func(k int) {
			defer injWG.Done()
			var seen []uint64
			for {
				select {
				case <-stop:
					return
				case inst := <-decided:
					seen = append(seen, inst)
				case <-time.After(time.Millisecond):
				}
				d := dep.Daemons[k%len(dep.Daemons)]
				from := (d.ID() + 1) % len(dep.Daemons)
				// Junk: header does not parse.
				bad := append(wire.GetBuf(), "garbage-frame"...)
				dispatchOne(d, from, bad)
				badInjected.Add(1)
				for _, inst := range seen {
					// Duplicate OPEN for a known instance: a no-op against
					// running and retired entries alike.
					open, err := wire.EncodeInstanceMessage(inst, transport.Message{
						From: from, To: d.ID(), Payload: wire.Open{Protocol: "acs"},
					})
					if err != nil {
						t.Error(err)
						return
					}
					dispatchOne(d, from, open)
					// A protocol frame for a decided instance: delivered and
					// ignored while it lingers, dropped into lateFrames once
					// retired. Either way it must not wedge the dispatcher.
					frame, err := wire.EncodeInstanceMessage(inst, transport.Message{
						From: from, To: d.ID(),
						Payload: bw.ValPayload{Round: 1, Value: 0.25, Entry: 1},
					})
					if err != nil {
						t.Error(err)
						return
					}
					dispatchOne(d, from, frame)
					lateInjected.Add(1)
				}
				if len(seen) > 8 {
					seen = seen[len(seen)-8:]
				}
			}
		}(k)
	}

	wg.Wait()
	close(stop)
	injWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var bad int64
	for _, d := range dep.Daemons {
		snap := d.Snapshot()
		bad += snap.BadFrames
	}
	if got := badInjected.Load(); bad < got {
		t.Fatalf("fleet counted %d bad frames, injected at least %d", bad, got)
	}
}

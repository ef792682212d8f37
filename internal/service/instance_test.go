package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// probe is a recording protocol machine for the instance and dispatch
// tests: it notes every delivery in order, trips reentered if two
// invocations ever overlap (the Handler contract a mailbox's single runner
// keeps), and can be made to block in Start or in each Deliver so a test
// can hold the opener or the runner where it wants it.
type probe struct {
	id int
	// startGate, when non-nil, blocks Start until it is closed.
	startGate chan struct{}
	// gate, when non-nil, is received from before each delivery is recorded:
	// one token per delivery, closed = free-running.
	gate chan struct{}
	// entered, when non-nil, is signalled (never blocking) as a Deliver call
	// arrives, before the gate: buffer it by one to learn that the runner is
	// inside the machine.
	entered chan struct{}
	// reply makes every delivery send one frame back to its sender.
	reply bool

	inflight  atomic.Int32
	reentered atomic.Bool
	mu        sync.Mutex
	got       []probeRec
}

type probeRec struct{ from, seq int }

func (p *probe) ID() int { return p.id }

func (p *probe) Start(*sim.Outbox) {
	if p.startGate != nil {
		<-p.startGate
	}
}

func (p *probe) Deliver(m transport.Message, out *sim.Outbox) {
	if p.inflight.Add(1) != 1 {
		p.reentered.Store(true)
	}
	defer p.inflight.Add(-1)
	if p.entered != nil {
		select {
		case p.entered <- struct{}{}:
		default:
		}
	}
	if p.gate != nil {
		<-p.gate
	}
	p.mu.Lock()
	p.got = append(p.got, probeRec{from: m.From, seq: m.Payload.(bw.ValPayload).Round})
	p.mu.Unlock()
	if p.reply {
		out.Send(m.From, m.Payload)
	}
}

func (p *probe) Output() (float64, bool) { return 0, false }

func (p *probe) records() []probeRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]probeRec(nil), p.got...)
}

// seqsFrom is the sequence numbers p recorded from one sender, in order.
func (p *probe) seqsFrom(from int) []int {
	var seqs []int
	for _, r := range p.records() {
		if r.from == from {
			seqs = append(seqs, r.seq)
		}
	}
	return seqs
}

// probeFrame encodes one protocol frame from->to for inst whose payload
// Round carries seq.
func probeFrame(t testing.TB, inst uint64, from, to, seq int) ([]byte, wire.FrameInfo) {
	t.Helper()
	frame, err := wire.AppendInstanceMessage(wire.GetBuf(), inst, transport.Message{
		From: from, To: to,
		Payload: bw.ValPayload{Round: seq, Value: 0.5, Entry: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := wire.PeekFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return frame, info
}

// postSeqs dispatches frames seq lo..hi-1 from one sender to vertex 1's
// instance inst as a single read burst.
func postSeqs(t testing.TB, d *Daemon, inst uint64, from, lo, hi int) {
	t.Helper()
	var frames [][]byte
	var infos []wire.FrameInfo
	for seq := lo; seq < hi; seq++ {
		f, fi := probeFrame(t, inst, from, d.cfg.ID, seq)
		frames = append(frames, f)
		infos = append(infos, fi)
	}
	d.dispatchBatch(from, frames, infos)
}

func wantSeqs(t *testing.T, what string, got []int, lo, hi int) {
	t.Helper()
	if len(got) != hi-lo {
		t.Fatalf("%s: %d frames delivered, want %d", what, len(got), hi-lo)
	}
	for i, seq := range got {
		if seq != lo+i {
			t.Fatalf("%s: delivery %d carries seq %d, want %d", what, i, seq, lo+i)
		}
	}
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stillBlocked reports that done has not fired a little later: the negative
// half of a blocking assertion, which only time can show.
func stillBlocked(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

// The probe protocol puts a probe behind a real daemon: the registered
// builder hands each new instance the machine the running test parked in
// nextProbe (an inert one otherwise).
var nextProbe atomic.Pointer[probe]

func init() {
	repro.Register("probe", func(*repro.Graph, []float64, repro.Options) (*repro.Result, error) {
		return nil, errors.New("probe: live runtimes only")
	})
	repro.RegisterBuilder("probe", func(*repro.Graph, []float64, repro.Options) (repro.HandlerFactory, error) {
		return func(id int) (repro.Handler, error) {
			p := nextProbe.Swap(nil)
			if p == nil {
				p = &probe{}
			}
			p.id = id
			return p, nil
		}, nil
	})
}

// newProbeDaemon starts a real daemon for vertex 1 of clique:3 serving the
// probe protocol. Its peers' listeners exist and never accept: sends sit in
// the fabric, and the test plays the inbound links through dispatchBatch.
func newProbeDaemon(t *testing.T, logf func(string, ...any)) *Daemon {
	t.Helper()
	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	peers := map[int]string{0: listen().Addr().String(), 2: listen().Addr().String()}
	d, err := New(Config{
		ID:           1,
		Scenario:     repro.Scenario{Graph: "clique:3", Protocol: "probe", Inputs: []float64{0, 0, 0}},
		PeerListener: listen(),
		Peers:        peers,
		Logf:         logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start(context.Background())
	t.Cleanup(d.Close)
	return d
}

// instanceOf returns the running instance, nil when there is none.
func instanceOf(d *Daemon, inst uint64) *instance {
	sh := d.shard(inst)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.instances[inst]
}

// TestMailboxFIFOAcrossOpen pins per-link FIFO across the open boundary, the
// property the ready gate used to hold: frames that arrived before the OPEN
// and waited in pending are delivered ahead of frames the same link posts
// while open is still starting the machine.
func TestMailboxFIFOAcrossOpen(t *testing.T) {
	d := newProbeDaemon(t, nil)
	const inst = uint64(3<<10 | 0)
	postSeqs(t, d, inst, 0, 0, 3) // no such instance yet: pending

	p := &probe{startGate: make(chan struct{})}
	nextProbe.Store(p)
	open, err := wire.EncodeInstanceMessage(inst, transport.Message{From: 0, To: 1, Payload: wire.Open{Protocol: "probe"}})
	if err != nil {
		t.Fatal(err)
	}
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		dispatchOne(d, 0, open) // the opener: parks in the machine's Start
	}()
	eventually(t, "the instance to be published", func() bool { return instanceOf(d, inst) != nil })

	// Published, machine still starting: these queue behind the pending three.
	postSeqs(t, d, inst, 0, 3, 6)
	if got := len(p.records()); got != 0 {
		t.Fatalf("%d frames delivered before the machine started", got)
	}
	close(p.startGate)
	<-opened
	wantSeqs(t, "link 0", p.seqsFrom(0), 0, 6)
	if p.reentered.Load() {
		t.Fatal("two runners were inside the machine at once")
	}
}

// TestMailboxSingleRunner: eight connections dispatch interleaved runs to
// one instance on four Ps. Whoever finds the instance's node idle runs it;
// the machine must never see two invocations at once, every sender's
// frames must arrive in the order they were dispatched, and each exactly
// once — none late, none left in the box when the instance retires.
func TestMailboxSingleRunner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		inst      = uint64(5<<10 | 1)
		senders   = 8
		perSender = 2000
	)
	g := graph.Clique(senders + 1)
	d := newSkeleton(g)
	p := &probe{id: 1}
	ins, err := d.addIdle(g, inst, p, nullOut{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		from := k
		if from >= 1 {
			from++ // vertex 1 is the daemon itself
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < perSender; {
				run := 1 + (seq+from)%5
				if seq+run > perSender {
					run = perSender - seq
				}
				postSeqs(t, d, inst, from, seq, seq+run)
				seq += run
			}
		}()
	}
	wg.Wait()
	eventually(t, "hand-off goroutines, if any budget ran out", func() bool {
		return len(p.records()) == senders*perSender
	})

	if p.reentered.Load() {
		t.Fatal("two runners were inside the machine at once")
	}
	for from := 0; from <= senders; from++ {
		if from != 1 {
			wantSeqs(t, fmt.Sprintf("sender %d", from), p.seqsFrom(from), 0, perSender)
		}
	}
	ins.nd.Close() // retire the quiescent instance
	if late := d.lateFrames.Load(); late != 0 {
		t.Fatalf("%d late frames on a quiescent instance", late)
	}
	if active, retired := d.active(), d.retiredN.Load(); active != 0 || retired != 1 {
		t.Fatalf("after retire: active %d, retired %d; want 0 and 1", active, retired)
	}
}

// TestMailboxBackpressure: an instance whose mailbox is at its bound parks
// the next dispatch — inbound flow control on that connection — until the
// runner takes the box, and retiring the instance or closing the daemon
// releases a parked dispatch with every undelivered frame counted late in
// the daemon's ledger.
func TestMailboxBackpressure(t *testing.T) {
	// fill opens an instance whose runner (a goroutine playing link 2's
	// reader) is held inside its first delivery, fills the box to the bound
	// from link 0, and parks one more dispatch. parked closes when that
	// dispatch returns, ran when the held runner does.
	fill := func(t *testing.T) (d *Daemon, p *probe, inst uint64, parked, ran chan struct{}) {
		d = newProbeDaemon(t, nil)
		p = &probe{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
		nextProbe.Store(p)
		inst, err := d.Submit("probe")
		if err != nil {
			t.Fatal(err)
		}
		ran = make(chan struct{})
		go func() {
			defer close(ran)
			postSeqs(t, d, inst, 2, 0, 1)
		}()
		<-p.entered
		for seq := 0; seq < node.BoxCap; seq += 64 {
			postSeqs(t, d, inst, 0, seq, seq+64) // the runner is busy: returns at once
		}
		parked = make(chan struct{})
		go func() {
			defer close(parked)
			postSeqs(t, d, inst, 0, node.BoxCap, node.BoxCap+1)
		}()
		if !stillBlocked(parked) {
			t.Fatal("a dispatch got past a mailbox at its bound")
		}
		return d, p, inst, parked, ran
	}
	// posted is every frame fill handed the daemon.
	const posted = 1 + node.BoxCap + 1

	t.Run("drain", func(t *testing.T) {
		d, p, _, parked, ran := fill(t)
		close(p.gate)
		<-parked
		<-ran // its budget spent, the rest handed off
		eventually(t, "the hand-off to drain the box", func() bool { return len(p.records()) == posted })
		wantSeqs(t, "link 0", p.seqsFrom(0), 0, node.BoxCap+1)
		if late := d.lateFrames.Load(); late != 0 {
			t.Fatalf("%d late frames on a drained mailbox", late)
		}
	})
	t.Run("retire", func(t *testing.T) {
		d, p, inst, parked, ran := fill(t)
		instanceOf(d, inst).nd.Close() // what the linger timer does
		<-parked                       // released by the closed box, its frame late
		close(p.gate)
		<-ran // the held runner finishes the instance
		if got, late := int64(len(p.records())), d.lateFrames.Load(); got+late != posted || late < node.BoxCap {
			t.Fatalf("%d delivered + %d late, want %d in all with the box late", got, late, posted)
		}
		if snap := d.Snapshot(); snap.Active != 0 || snap.Retired != 1 {
			t.Fatalf("after retire: active %d, retired %d; want 0 and 1", snap.Active, snap.Retired)
		}
	})
	t.Run("close", func(t *testing.T) {
		d, p, _, parked, ran := fill(t)
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			d.Close()
		}()
		<-parked
		<-closed // Close does not wait for a runner that is not its own
		close(p.gate)
		<-ran
		if got, late := int64(len(p.records())), d.lateFrames.Load(); got+late != posted || late < node.BoxCap {
			t.Fatalf("%d delivered + %d late, want %d in all with the box late", got, late, posted)
		}
	})
}

// TestMailboxBoundedPass: a reader whose dispatch made it an instance's
// runner is not held captive by another peer's flood. After
// node.RunBudget frames it hands the rest to a goroutine of the node's and
// returns to its socket; the flood is still delivered, in order.
func TestMailboxBoundedPass(t *testing.T) {
	const (
		inst  = uint64(9<<10 | 1)
		flood = 4 * node.RunBudget
	)
	g := graph.Clique(3)
	d := newSkeleton(g)
	p := &probe{id: 1, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	ins, err := d.addIdle(g, inst, p, nullOut{})
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	go func() { // link 2's reader: one frame of its own, and the runner role
		defer close(returned)
		postSeqs(t, d, inst, 2, 0, 1)
	}()
	<-p.entered
	for seq := 0; seq < flood; seq += 64 {
		postSeqs(t, d, inst, 0, seq, seq+64) // link 0 floods behind it
	}
	for i := 0; i < node.RunBudget; i++ {
		p.gate <- struct{}{} // exactly the budget: the flood is far from done
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the reader was still running the flooded instance past its budget")
	}
	if got := len(p.records()); got != node.RunBudget {
		t.Fatalf("the reader delivered %d frames before it returned, want its budget of %d", got, node.RunBudget)
	}
	close(p.gate)
	eventually(t, "the hand-off to deliver the flood", func() bool { return len(p.records()) == flood+1 })
	ins.nd.Close() // joins the hand-off
	wantSeqs(t, "the flood", p.seqsFrom(0), 0, flood)
	if late := d.lateFrames.Load(); late != 0 {
		t.Fatalf("%d late frames after the flood was delivered", late)
	}
	if p.reentered.Load() {
		t.Fatal("the hand-off let two runners into the machine")
	}
}

// TestServiceFailedInstanceReportsCause: an instance whose outbound refuses
// a frame (Mux.Send does, over wire.MaxFrame) retires undecided — and says
// why: the cause is logged with the instance id and carried by the error
// every waiter gets. The failing reply surfaces at its batch's flush, so
// the whole burst is delivered first; frames after it are late, and every
// frame is accounted for.
func TestServiceFailedInstanceReportsCause(t *testing.T) {
	const inst = uint64(21<<10 | 0)
	g := graph.Clique(2)
	d := newSkeleton(g)
	var logMu sync.Mutex
	var logged []string
	d.cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	p := &probe{id: 1, reply: true}
	ins, err := d.addIdle(g, inst, p, refusingOut{})
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		_, err := d.Wait(context.Background(), inst)
		waitErr <- err
	}()
	eventually(t, "the waiter to attach", func() bool {
		ins.mu.Lock()
		defer ins.mu.Unlock()
		return len(ins.waiters) == 1
	})

	postSeqs(t, d, inst, 0, 0, 3) // the burst's replies are refused at its flush
	postSeqs(t, d, inst, 0, 3, 5) // the instance is gone

	for _, err := range []error{<-waitErr, func() error { _, err := d.Wait(context.Background(), inst); return err }()} {
		if err == nil || !strings.Contains(err.Error(), "retired without deciding") || !strings.Contains(err.Error(), errRefused.Error()) {
			t.Fatalf("Wait returned %v, want a retired-undecided error carrying %q", err, errRefused)
		}
	}
	if got, late := len(p.records()), d.lateFrames.Load(); got != 3 || late != 2 {
		t.Fatalf("%d delivered, %d late; want 3 and 2", got, late)
	}
	if instanceOf(d, inst) != nil {
		t.Fatal("failed instance still routed")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], fmt.Sprint(inst)) || !strings.Contains(logged[0], errRefused.Error()) {
		t.Fatalf("log = %q, want one line naming inst %d and the refusal", logged, inst)
	}
}

var errRefused = errors.New("frame refused by the link")

// refusingOut is an outbound that refuses every frame, as Mux.Send refuses
// one over wire.MaxFrame: released, reported.
type refusingOut struct{}

func (refusingOut) Send(_ int, frame []byte) error { wire.PutBuf(frame); return errRefused }

// fleetDecided reports whether every daemon has decided want instances.
func fleetDecided(dep *Deployment, want int64) bool {
	for _, d := range dep.Daemons {
		if d.Snapshot().Decided < want {
			return false
		}
	}
	return true
}

// TestServiceGoroutinesDoNotScaleWithInstances: an instance is a mailbox,
// not a goroutine. Two hundred decided instances lingering at every daemon
// leave the process with the goroutines the idle fleet had.
func TestServiceGoroutinesDoNotScaleWithInstances(t *testing.T) {
	dep, _ := deploy(t, DeployConfig{Scenario: testScenario(), Linger: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := dep.Daemons[i%len(dep.Daemons)].SubmitWait(ctx, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(1) // every connection dialled, every reader up
	eventually(t, "the warm-up instance", func() bool { return fleetDecided(dep, 1) })
	idle := runtime.NumGoroutine()

	const instances = 200
	submit(instances)
	eventually(t, "every daemon to decide every instance", func() bool { return fleetDecided(dep, 1+instances) })
	var active int64
	for _, d := range dep.Daemons {
		active += d.Snapshot().Active
	}
	if want := int64((1 + instances) * len(dep.Daemons)); active != want {
		t.Fatalf("%d instances lingering, want %d", active, want)
	}
	// A constant's slack for a hand-off or a timer callback in flight.
	const slack = 8
	eventually(t, "runners to go home", func() bool { return runtime.NumGoroutine() <= idle+slack })
	t.Logf("idle fleet %d goroutines; with %d lingering instances %d", idle, active, runtime.NumGoroutine())
}

// TestServiceCloseLeavesNothing: a closed fleet owns no goroutine and no
// timer, whatever its instances were doing — lingering with a minute on the
// clock, or undecided for good at a partitioned daemon.
func TestServiceCloseLeavesNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s := testScenario()
	s.LinkFaults = []repro.LinkFault{{Kind: "partition", Nodes: []int{0}}}
	const linger = time.Minute
	dep, err := Deploy(context.Background(), DeployConfig{Scenario: s, Linger: linger})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const instances = 5
	for i := 0; i < instances; i++ {
		inst, err := dep.Daemons[1].Submit("")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dep.Daemons[1:] {
			if _, err := d.Wait(ctx, inst); err != nil {
				t.Fatal(err)
			}
		}
	}
	eventually(t, "the partitioned daemon to open them all", func() bool {
		return dep.Daemons[0].Snapshot().Opened == instances
	})

	// An armed linger timer is counted in the daemon's WaitGroup until it is
	// stopped or has fired, so a Close that returns this far ahead of the
	// linger has stopped every one of them.
	start := time.Now()
	dep.Close()
	if took := time.Since(start); took > linger/4 {
		t.Fatalf("Close took %v: it waited on a linger timer", took)
	}
	for i, d := range dep.Daemons {
		snap := d.Snapshot()
		if snap.Active != 0 || snap.Retired != instances {
			t.Fatalf("daemon %d after Close: active %d, retired %d; want 0 and %d", i, snap.Active, snap.Retired, instances)
		}
	}
	eventually(t, "the fleet's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// recOut records every frame handed to it, in order.
type recOut struct {
	mu     sync.Mutex
	frames [][]byte
	to     []int
}

func (o *recOut) Send(to int, frame []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.frames = append(o.frames, append([]byte(nil), frame...))
	o.to = append(o.to, to)
	wire.PutBuf(frame)
	return nil
}

// TestInstanceDeliversLikeOneShot: a service instance and a one-shot node
// are one delivery path. The same bursts — dispatched to an instance, and
// posted to a node the way a one-shot run's readers post them — give the
// machines the same deliveries, the nodes equal Stats and the outbounds
// byte-identical frames, bundled the same way.
func TestInstanceDeliversLikeOneShot(t *testing.T) {
	g := graph.Clique(3)
	const inst = 0 // a one-shot run's instance id, so the frames compare byte for byte
	type burst struct{ from, lo, hi int }
	bursts := []burst{{0, 0, 3}, {2, 0, 1}, {0, 3, 4}, {2, 1, 6}, {0, 4, 9}}
	frames := func(b burst) [][]byte {
		var fs [][]byte
		for seq := b.lo; seq < b.hi; seq++ {
			f, _ := probeFrame(t, inst, b.from, 1, seq)
			fs = append(fs, f)
		}
		return fs
	}

	oneShot := &probe{id: 1, reply: true}
	oneShotOut := &recOut{}
	nd, err := node.New(node.Config{ID: 1, Graph: g, Handler: oneShot, Out: oneShotOut})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start(nil)
	for _, b := range bursts {
		if !nd.Post(b.from, frames(b)) {
			t.Fatal("the one-shot node refused a burst")
		}
	}

	d := newSkeleton(g)
	served := &probe{id: 1, reply: true}
	servedOut := &recOut{}
	ins, err := d.addIdle(g, inst, served, servedOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bursts {
		fs := frames(b)
		infos := make([]wire.FrameInfo, len(fs))
		for i, f := range fs {
			if infos[i], err = wire.PeekFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		d.dispatchBatch(b.from, fs, infos)
	}

	if got, want := served.records(), oneShot.records(); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 15 {
		t.Fatalf("the instance delivered %v, the one-shot node %v; want the same 15", got, want)
	}
	if got, want := ins.nd.Stats(), nd.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("instance stats %+v, one-shot stats %+v: want equal", got, want)
	}
	if len(oneShotOut.frames) != len(bursts) {
		t.Fatalf("the one-shot node wrote %d frames for %d single-sender bursts, want one each", len(oneShotOut.frames), len(bursts))
	}
	if !reflect.DeepEqual(servedOut.to, oneShotOut.to) || !reflect.DeepEqual(servedOut.frames, oneShotOut.frames) {
		t.Fatalf("outbound frames differ: instance sent to %v, one-shot to %v", servedOut.to, oneShotOut.to)
	}
}

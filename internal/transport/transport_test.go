package transport

import (
	"testing"
)

type testPayload string

func (p testPayload) Kind() string { return string(p) }

func msg(from, to int, kind string) Message {
	return Message{From: from, To: to, Payload: testPayload(kind)}
}

func TestPoolAddTake(t *testing.T) {
	stats := NewStats()
	p := NewPool(nil, stats)
	p.Add(msg(0, 1, "a"))
	p.Add(msg(1, 2, "b"))
	if p.PendingLen() != 2 || p.Empty() {
		t.Fatal("pool bookkeeping wrong")
	}
	m := p.Take(0)
	if m.Payload.Kind() != "a" && m.Payload.Kind() != "b" {
		t.Fatal("unexpected payload")
	}
	if stats.Sent != 2 || stats.Delivered != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.ByKind()["a"] != 1 || stats.ByKind()["b"] != 1 {
		t.Errorf("by-kind = %v", stats.ByKind())
	}
}

func TestPoolSeqAssignment(t *testing.T) {
	p := NewPool(nil, NewStats())
	p.Add(msg(0, 1, "a"))
	p.Add(msg(0, 1, "b"))
	if p.Pending()[0].Seq != 0 || p.Pending()[1].Seq != 1 {
		t.Errorf("sequence numbers wrong: %v", p.Pending())
	}
}

// TestPendingReturnsCopy pins the fix for policies (or any caller) mutating
// the pool through the Pending slice: the accessor must hand out a copy.
func TestPendingReturnsCopy(t *testing.T) {
	p := NewPool(nil, NewStats())
	p.Add(msg(0, 1, "a"))
	p.Add(msg(2, 3, "b"))
	leak := p.Pending()
	leak[0] = msg(9, 9, "mutated")
	leak[0].Seq = 999
	if got := p.View().At(0); got.From != 0 || got.To != 1 || got.Seq != 0 {
		t.Fatalf("mutating Pending() result reached the pool: %v", got)
	}
}

// TestSeqIndex exercises the oldest/newest index through adds, swap-removes
// and a hold release, cross-checking against a linear scan.
func TestSeqIndex(t *testing.T) {
	hold := HoldEdges(map[[2]int]bool{{5, 6}: true})
	p := NewPool(hold, NewStats())
	check := func() {
		if p.PendingEmpty() {
			return
		}
		v := p.View()
		minI, maxI := 0, 0
		for i := 1; i < v.Len(); i++ {
			if v.At(i).Seq < v.At(minI).Seq {
				minI = i
			}
			if v.At(i).Seq > v.At(maxI).Seq {
				maxI = i
			}
		}
		if got := v.OldestIndex(); got != minI {
			t.Fatalf("OldestIndex = %d, scan says %d", got, minI)
		}
		if got := v.NewestIndex(); got != maxI {
			t.Fatalf("NewestIndex = %d, scan says %d", got, maxI)
		}
	}
	// Interleave adds (some held, so released seqs are out of order later),
	// index checks and takes from varying positions.
	for i := 0; i < 8; i++ {
		p.Add(msg(5, 6, "held")) // seqs 0,2,4,... withheld
		p.Add(msg(0, 1, "free"))
		check()
	}
	p.Take(p.View().OldestIndex())
	check()
	p.Take(p.View().NewestIndex())
	check()
	p.ReleaseHeld() // re-injects seqs older than everything pending
	check()
	for !p.PendingEmpty() {
		idx := int(p.View().At(0).Seq) % p.PendingLen()
		p.Take(idx)
		check()
	}
}

func TestFIFOPolicy(t *testing.T) {
	p := NewPool(nil, NewStats())
	for _, k := range []string{"first", "second", "third"} {
		p.Add(msg(0, 1, k))
	}
	var policy FIFOPolicy
	var got []string
	for !p.PendingEmpty() {
		got = append(got, p.Take(policy.Pick(p.View())).Payload.Kind())
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO order = %v", got)
		}
	}
}

func TestLIFOPolicy(t *testing.T) {
	p := NewPool(nil, NewStats())
	for _, k := range []string{"first", "second", "third"} {
		p.Add(msg(0, 1, k))
	}
	var policy LIFOPolicy
	if got := p.Take(policy.Pick(p.View())).Payload.Kind(); got != "third" {
		t.Fatalf("LIFO picked %q", got)
	}
}

func TestRandomPolicyDeterminism(t *testing.T) {
	mkPool := func() *Pool {
		p := NewPool(nil, NewStats())
		for i := 0; i < 10; i++ {
			p.Add(msg(0, 1, "x"))
		}
		return p
	}
	a, b := NewRandomPolicy(7), NewRandomPolicy(7)
	pa, pb := mkPool(), mkPool()
	for i := 0; i < 20; i++ {
		if a.Pick(pa.View()) != b.Pick(pb.View()) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBoundedDelayPolicy(t *testing.T) {
	p := NewBoundedDelayPolicy(3, 1)
	pool := NewPool(nil, NewStats())
	for i := 0; i < 10; i++ {
		pool.Add(msg(0, 1, "m"))
	}
	// Deliver 10 messages; the oldest pending seq can never lag the
	// delivery count by more than the bound.
	for i := 0; i < 10; i++ {
		pending := pool.View()
		idx := p.Pick(pending)
		oldest := pending.At(0).Seq
		for j := 1; j < pending.Len(); j++ {
			if pending.At(j).Seq < oldest {
				oldest = pending.At(j).Seq
			}
		}
		if uint64(i+1) > oldest+3 && pending.At(idx).Seq != oldest {
			t.Fatalf("delivery %d: overtaking bound violated (oldest=%d picked=%d)",
				i, oldest, pending.At(idx).Seq)
		}
		pool.Take(idx)
	}
}

func TestBoundedDelayZeroIsFIFO(t *testing.T) {
	p := NewBoundedDelayPolicy(0, 1)
	pool := NewPool(nil, NewStats())
	for _, k := range []string{"a", "b", "c"} {
		pool.Add(msg(0, 1, k))
	}
	var got []string
	for !pool.PendingEmpty() {
		got = append(got, pool.Take(p.Pick(pool.View())).Payload.Kind())
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestHoldRule(t *testing.T) {
	hold := HoldEdges(map[[2]int]bool{{0, 1}: true})
	stats := NewStats()
	p := NewPool(hold, stats)
	p.Add(msg(0, 1, "held"))
	p.Add(msg(1, 0, "free"))
	if p.PendingLen() != 1 || p.HeldCount() != 1 {
		t.Fatalf("pending=%d held=%d", p.PendingLen(), p.HeldCount())
	}
	if p.Empty() {
		t.Error("pool with held messages is not empty")
	}
	p.ReleaseHeld()
	if p.PendingLen() != 2 || p.HeldCount() != 0 {
		t.Error("release did not move messages")
	}
	// After release the rule no longer captures new sends.
	p.Add(msg(0, 1, "late"))
	if p.HeldCount() != 0 {
		t.Error("released hold captured a message")
	}
	if !hold.Released() {
		t.Error("Released() should be true")
	}
}

func TestHoldRuleMatchFunc(t *testing.T) {
	h := NewHoldRule(func(m Message) bool { return m.Payload.Kind() == "x" })
	if !h.Holds(msg(0, 1, "x")) || h.Holds(msg(0, 1, "y")) {
		t.Error("match function ignored")
	}
}

func TestStatsDrop(t *testing.T) {
	s := NewStats()
	s.RecordDrop()
	if s.Dropped != 1 {
		t.Error("drop not counted")
	}
}

// TestOrderedIndexEdgeCases covers the PendingView index corners: a single
// pending message, the ordering after a hold release re-injects seqs older
// than everything pending, and the panic on an empty view.
func TestOrderedIndexEdgeCases(t *testing.T) {
	// Single message: both extremes are index 0, repeatedly.
	p := NewPool(nil, NewStats())
	p.Add(msg(0, 1, "only"))
	if p.View().OldestIndex() != 0 || p.View().NewestIndex() != 0 {
		t.Fatal("single-message extremes should both be index 0")
	}
	if got := p.Take(p.View().OldestIndex()); got.Seq != 0 {
		t.Fatalf("took seq %d", got.Seq)
	}

	// Empty view: ordered queries must panic (a policy asking with Len()==0
	// is a bug, never a silent index).
	for name, query := range map[string]func(PendingView) int{
		"oldest": PendingView.OldestIndex,
		"newest": PendingView.NewestIndex,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty view did not panic", name)
				}
			}()
			query(p.View())
		}()
	}

	// Post-ReleaseHeld: released messages carry seqs older than every
	// pending one, so OldestIndex must land on a released slot, and
	// NewestIndex on the most recent live send.
	hold := HoldEdges(map[[2]int]bool{{7, 8}: true})
	p = NewPool(hold, NewStats())
	p.Add(msg(7, 8, "h0")) // seq 0, held
	p.Add(msg(7, 8, "h1")) // seq 1, held
	p.Add(msg(0, 1, "f2")) // seq 2
	p.Add(msg(0, 1, "f3")) // seq 3
	// Force the index to exist before the release so release goes through
	// the incremental path.
	if p.View().OldestIndex() != 0 {
		t.Fatal("oldest free message should be at index 0")
	}
	p.ReleaseHeld()
	v := p.View()
	if got := v.At(v.OldestIndex()).Seq; got != 0 {
		t.Fatalf("post-release OldestIndex picked seq %d, want 0", got)
	}
	if got := v.At(v.NewestIndex()).Seq; got != 3 {
		t.Fatalf("post-release NewestIndex picked seq %d, want 3", got)
	}
	// Draining in oldest order yields global seq order.
	var seqs []uint64
	for !p.PendingEmpty() {
		seqs = append(seqs, p.Take(p.View().OldestIndex()).Seq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("oldest-order drain out of order: %v", seqs)
		}
	}
}

// TestAddAllMatchesSequentialAdds pins AddAll's contract: identical Seq
// assignment, pending order and statistics to one-by-one Add calls — with
// and without an active hold rule.
func TestAddAllMatchesSequentialAdds(t *testing.T) {
	batch := []Message{msg(0, 1, "a"), msg(5, 6, "b"), msg(1, 2, "c"), msg(5, 6, "d")}
	mk := func() (*Pool, *Pool) {
		ha := HoldEdges(map[[2]int]bool{{5, 6}: true})
		hb := HoldEdges(map[[2]int]bool{{5, 6}: true})
		return NewPool(ha, NewStats()), NewPool(hb, NewStats())
	}
	seq, bat := mk()
	for _, m := range batch {
		seq.Add(m)
	}
	bat.AddAll(batch)
	if seq.PendingLen() != bat.PendingLen() || seq.HeldCount() != bat.HeldCount() {
		t.Fatalf("pending/held diverged: %d/%d vs %d/%d",
			seq.PendingLen(), seq.HeldCount(), bat.PendingLen(), bat.HeldCount())
	}
	for i := range seq.Pending() {
		a, b := seq.Pending()[i], bat.Pending()[i]
		if a.Seq != b.Seq || a.Payload.Kind() != b.Payload.Kind() {
			t.Fatalf("pending[%d] diverged: %v vs %v", i, a, b)
		}
	}
	seq.ReleaseHeld()
	bat.ReleaseHeld()
	// After release AddAll takes its batched fast path; order must still
	// match sequential adds exactly.
	seq2 := []Message{msg(5, 6, "e"), msg(2, 3, "f")}
	for _, m := range seq2 {
		seq.Add(m)
	}
	bat.AddAll(seq2)
	sp, bp := seq.Pending(), bat.Pending()
	if len(sp) != len(bp) {
		t.Fatalf("pending length diverged: %d vs %d", len(sp), len(bp))
	}
	for i := range sp {
		if sp[i].Seq != bp[i].Seq || sp[i].Payload.Kind() != bp[i].Payload.Kind() {
			t.Fatalf("post-release pending[%d] diverged: %v vs %v", i, sp[i], bp[i])
		}
	}
}

// TestArenaReuse pins the freelist behavior: a long churn at constant
// in-flight load must not grow the arena beyond its high-water mark.
func TestArenaReuse(t *testing.T) {
	p := NewPoolSized(nil, NewStats(), 8)
	for i := 0; i < 8; i++ {
		p.Add(msg(0, 1, "x"))
	}
	for i := 0; i < 10_000; i++ {
		p.Take(i % p.PendingLen())
		p.Add(msg(0, 1, "x"))
	}
	if len(p.arena) != 8+1 {
		// One slot of slack: Add allocates before Take frees in the loop
		// above only on the first iteration.
		if len(p.arena) > 9 {
			t.Fatalf("arena grew to %d slots under constant load 8", len(p.arena))
		}
	}
}

// Pending returns a copy of the deliverable messages, in pool order. It is
// a diagnostic accessor: the copy protects the pool's determinism-bearing
// internal order from callers. The hot path uses View instead.
func (p *Pool) Pending() []Message {
	out := make([]Message, len(p.pending))
	for i, ai := range p.pending {
		out[i] = p.arena[ai].msg
	}
	return out
}

// Empty reports whether no message is deliverable or held.
func (p *Pool) Empty() bool { return len(p.pending) == 0 && len(p.held) == 0 }

// PendingLen returns the number of deliverable messages.
func (p *Pool) PendingLen() int { return len(p.pending) }

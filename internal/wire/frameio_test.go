package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bw"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frameioMessage is the representative hot-path frame for the pooled-I/O
// tests: a small VAL flood like most protocol traffic.
func frameioMessage() transport.Message {
	return transport.Message{
		From: 3, To: 5,
		Payload: bw.ValPayload{Round: 2, Value: 0.625, Entry: 17},
	}
}

func TestAppendRawFrameLayout(t *testing.T) {
	body, err := wire.EncodeInstanceMessage(0, frameioMessage())
	if err != nil {
		t.Fatal(err)
	}
	appended, err := wire.AppendRawFrame(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	// A stream frame is a 4-byte big-endian body length, then the body.
	want := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	if !bytes.Equal(appended, want) {
		t.Fatalf("AppendRawFrame layout:\n  got  %x\n  want %x", appended, want)
	}
	// Appending onto a non-empty prefix extends rather than replaces.
	withPrefix, err := wire.AppendRawFrame(append([]byte(nil), appended...), body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withPrefix, append(append([]byte(nil), appended...), appended...)) {
		t.Fatal("AppendRawFrame onto a prefix did not concatenate")
	}
}

func TestAppendRawFrameRejectsOversize(t *testing.T) {
	huge := make([]byte, wire.MaxFrame+1)
	dst := []byte{0xAA}
	out, err := wire.AppendRawFrame(dst, huge)
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if len(out) != 1 || out[0] != 0xAA {
		t.Fatalf("dst mutated on rejection: %x", out)
	}
}

func TestFrameReaderRoundTrip(t *testing.T) {
	bodies := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0x5A}, 300),
		bytes.Repeat([]byte{0x7F}, 70_000), // larger than the pooled cap band
	}
	var stream []byte
	for _, b := range bodies {
		var err error
		if stream, err = wire.AppendRawFrame(stream, b); err != nil {
			t.Fatal(err)
		}
	}
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	for i, want := range bodies {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		wire.PutBuf(got)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameReaderCutMidFrame(t *testing.T) {
	stream, err := wire.AppendRawFrame(nil, bytes.Repeat([]byte{0xBB}, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 4, 10, len(stream) - 1} {
		fr := wire.NewFrameReader(bytes.NewReader(stream[:cut]))
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameReaderRejectsOversizeHeader(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF} // ~4GB length
	fr := wire.NewFrameReader(bytes.NewReader(hdr))
	if _, err := fr.Next(); err == nil || err == io.EOF {
		t.Fatalf("oversize header: %v, want a MaxFrame error", err)
	}
}

// TestFrameReaderNextBatch pins the batched read path: a coalesced burst
// reads back as the same frames in the same order, each with its routing
// header correctly peeked, followed by clean EOF on the next call.
func TestFrameReaderNextBatch(t *testing.T) {
	var stream []byte
	var wantInsts []uint64
	for i := 0; i < 10; i++ {
		inst := uint64(100 + i)
		body, err := wire.EncodeInstanceMessage(inst, frameioMessage())
		if err != nil {
			t.Fatal(err)
		}
		if stream, err = wire.AppendRawFrame(stream, body); err != nil {
			t.Fatal(err)
		}
		wantInsts = append(wantInsts, inst)
	}
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	var got []uint64
	frames := make([][]byte, 0, 4)
	infos := make([]wire.FrameInfo, 0, 4)
	for len(got) < len(wantInsts) {
		var err error
		frames, infos, err = fr.NextBatch(frames[:0], infos[:0], 4)
		if err != nil {
			t.Fatalf("after %d frames: %v", len(got), err)
		}
		if len(frames) == 0 || len(frames) > 4 {
			t.Fatalf("batch of %d frames, want 1..4", len(frames))
		}
		if len(frames) != len(infos) {
			t.Fatalf("%d frames but %d infos", len(frames), len(infos))
		}
		for i, f := range frames {
			if infos[i].Bad {
				t.Fatalf("frame %d marked bad", len(got))
			}
			if infos[i].Inst != wantInsts[len(got)] {
				t.Fatalf("frame %d peeked inst %d, want %d", len(got), infos[i].Inst, wantInsts[len(got)])
			}
			if infos[i].From != 3 || infos[i].To != 5 || infos[i].Open {
				t.Fatalf("frame %d peeked %+v", len(got), infos[i])
			}
			got = append(got, infos[i].Inst)
			wire.PutBuf(f)
		}
	}
	if _, _, err := fr.NextBatch(frames[:0], infos[:0], 4); err != io.EOF {
		t.Fatalf("after last batch: %v, want io.EOF", err)
	}
}

// TestFrameReaderNextBatchBadHeader: a frame whose body fails PeekFrame is
// still delivered (infos[i].Bad set) and the stream survives — the
// dispatcher drops that one frame but keeps the link.
func TestFrameReaderNextBatchBadHeader(t *testing.T) {
	good, err := wire.EncodeInstanceMessage(7, frameioMessage())
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream, _ = wire.AppendRawFrame(stream, good)
	stream, _ = wire.AppendRawFrame(stream, []byte{0xFF, 0xFF, 0xFF}) // bad version byte
	stream, _ = wire.AppendRawFrame(stream, good)
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	frames, infos, err := fr.NextBatch(nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("batch of %d frames, want 3", len(frames))
	}
	for i, wantBad := range []bool{false, true, false} {
		if infos[i].Bad != wantBad {
			t.Fatalf("infos[%d].Bad = %v, want %v", i, infos[i].Bad, wantBad)
		}
		wire.PutBuf(frames[i])
	}
	if infos[0].Open || infos[0].Inst != 7 {
		t.Fatalf("good frame peeked %+v", infos[0])
	}
}

// TestFrameReaderNextBatchDeferredError: a mid-batch stream poison (an
// oversize length prefix after valid frames) must not lose the frames
// already decoded — they are returned first, and the error surfaces on
// the following call.
func TestFrameReaderNextBatchDeferredError(t *testing.T) {
	good, err := wire.EncodeInstanceMessage(7, frameioMessage())
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream, _ = wire.AppendRawFrame(stream, good)
	stream, _ = wire.AppendRawFrame(stream, good)
	stream = append(stream, 0xFF, 0xFF, 0xFF, 0xFF) // ~4GB length prefix
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	frames, infos, err := fr.NextBatch(nil, nil, 8)
	if err != nil {
		t.Fatalf("poisoned batch erred early: %v", err)
	}
	if len(frames) != 2 {
		t.Fatalf("batch of %d frames, want the 2 before the poison", len(frames))
	}
	for i := range frames {
		if infos[i].Bad || infos[i].Inst != 7 {
			t.Fatalf("frame %d peeked %+v", i, infos[i])
		}
		wire.PutBuf(frames[i])
	}
	if _, _, err := fr.NextBatch(nil, nil, 8); err == nil || err == io.EOF {
		t.Fatalf("deferred poison surfaced as %v, want a MaxFrame error", err)
	}
}

// checkNoAllocs asserts a zero allocation count that depends on the frame
// pool handing back what was released. That holds in a normal build — a
// collection empties the pool now and then, but testing.AllocsPerRun floors
// the average over its runs — and cannot under -race, where sync.Pool drops
// a quarter of all Puts on purpose: there the measured body has still run,
// for the detector's sake, and only the count goes unchecked.
func checkNoAllocs(t *testing.T, what string, got float64) {
	t.Helper()
	if wire.RaceEnabled {
		t.Logf("%s: %.2f allocs per op under -race, not asserted", what, got)
		return
	}
	if got != 0 {
		t.Errorf("%s allocates %.2f per op, want 0", what, got)
	}
}

// TestFrameReaderNextBatchAllocBudget extends the read alloc fence to the
// batched path: recycled frames/infos slices and pooled bodies make a
// steady-state NextBatch allocation-free.
func TestFrameReaderNextBatchAllocBudget(t *testing.T) {
	body, err := wire.EncodeInstanceMessage(9, frameioMessage())
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for i := 0; i < 64; i++ {
		stream, _ = wire.AppendRawFrame(stream, body)
	}
	fr := wire.NewFrameReader(&loopReader{data: stream})
	frames := make([][]byte, 0, 16)
	infos := make([]wire.FrameInfo, 0, 16)
	got := testing.AllocsPerRun(1000, func() {
		var err error
		frames, infos, err = fr.NextBatch(frames[:0], infos[:0], 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			wire.PutBuf(f)
		}
	})
	checkNoAllocs(t, "FrameReader.NextBatch", got)
}

// TestWireEncodeAllocBudget is the frame-path alloc fence: encode into a
// reused buffer, length-prefixed append into a reused coalesce buffer, and
// pooled buffered read must all be allocation-free in steady state. The two
// subtests that go through the pool assert their count in normal builds
// only (checkNoAllocs).
func TestWireEncodeAllocBudget(t *testing.T) {
	msg := frameioMessage()
	const inst = uint64(9)
	body, err := wire.EncodeInstanceMessage(inst, msg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("append-encode", func(t *testing.T) {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		got := testing.AllocsPerRun(1000, func() {
			var err error
			if buf, err = wire.AppendInstanceMessage(buf[:0], inst, msg); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("AppendInstanceMessage allocates %.2f per op, want 0", got)
		}
	})

	t.Run("coalesced-write", func(t *testing.T) {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		got := testing.AllocsPerRun(1000, func() {
			var err error
			if buf, err = wire.AppendRawFrame(buf[:0], body); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("AppendRawFrame allocates %.2f per op, want 0", got)
		}
	})

	t.Run("pooled-read", func(t *testing.T) {
		var stream []byte
		for i := 0; i < 64; i++ {
			stream, _ = wire.AppendRawFrame(stream, body)
		}
		fr := wire.NewFrameReader(&loopReader{data: stream})
		got := testing.AllocsPerRun(1000, func() {
			f, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			wire.PutBuf(f)
		})
		checkNoAllocs(t, "FrameReader.Next", got)
	})

	t.Run("get-put", func(t *testing.T) {
		wire.PutBuf(wire.GetBuf()) // prime the pool with one buffer
		got := testing.AllocsPerRun(1000, func() {
			wire.PutBuf(wire.GetBuf())
		})
		checkNoAllocs(t, "GetBuf/PutBuf", got)
	})
}

// sameArray reports whether two slices share a backing array start.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestPoolBandsAndForeignSlices pins what the pool keeps and what it
// ignores. Slices outside the [512 B, 64 KB] capacity band — nil, a
// literal, a capacity-capped sub-slice of a bigger array, a giant — are
// inert: releasing them is safe and nobody is ever handed one. A buffer
// inside the band is reused at the capacity it grew to, so BW's
// path-carrying frames stop reallocating once their buffers have grown.
func TestPoolBandsAndForeignSlices(t *testing.T) {
	arena := make([]byte, 4096)
	foreign := [][]byte{
		nil,
		make([]byte, 18, 511),
		make([]byte, 18, 64<<10+1),
		arena[16:34:34], // a frame carved out of a read buffer
	}
	for _, f := range foreign {
		wire.PutBuf(f)
		// LIFO: had f been pooled, the very next takers would be handed it.
		for i := 0; i < 4; i++ {
			b := wire.GetBuf()
			if len(b) != 0 || cap(b) < 512 || cap(b) > 64<<10 {
				t.Fatalf("after releasing a cap-%d slice: GetBuf returned len %d cap %d", cap(f), len(b), cap(b))
			}
			if sameArray(b, f) {
				t.Fatalf("GetBuf handed out a released foreign slice of cap %d", cap(f))
			}
		}
	}

	// An MTU-sized frame grows its buffer once; the pool then returns the
	// grown buffer, not a fresh 512-byte one. A collection, a goroutine
	// migration (or -race's dropped Puts) can lose one release, hence the
	// retries.
	for attempt := 0; ; attempt++ {
		grown := append(wire.GetBuf(), make([]byte, 1408)...)
		wire.PutBuf(grown)
		b := wire.GetBuf()
		if len(b) != 0 {
			t.Fatalf("GetBuf returned a non-empty buffer (len %d)", len(b))
		}
		if cap(b) >= 1408 {
			break
		}
		if attempt == 100 {
			t.Fatalf("a buffer grown to 1408 bytes never came back: last GetBuf had cap %d", cap(b))
		}
	}
}

// loopReader replays one stream forever (an infinite in-memory peer).
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

// FuzzCoalescedFrames pins the batching invariant end to end: any sequence
// of frames coalesced with AppendRawFrame reads back through a FrameReader
// as exactly the same sequence, then clean EOF — batching must never merge,
// split, reorder, or corrupt frames on a directed edge.
func FuzzCoalescedFrames(f *testing.F) {
	f.Add(int64(1), 3)
	f.Add(int64(7), 1)
	f.Add(int64(42), 17)
	f.Fuzz(func(t *testing.T, seed int64, count int) {
		if count < 0 || count > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		frames := make([][]byte, count)
		var stream []byte
		for i := range frames {
			b := make([]byte, rng.Intn(2048))
			rng.Read(b)
			frames[i] = b
			var err error
			if stream, err = wire.AppendRawFrame(stream, b); err != nil {
				t.Fatal(err)
			}
		}
		fr := wire.NewFrameReader(bytes.NewReader(stream))
		for i, want := range frames {
			got, err := fr.Next()
			if err != nil {
				t.Fatalf("frame %d/%d: %v", i, count, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d/%d corrupted: %d bytes, want %d", i, count, len(got), len(want))
			}
			wire.PutBuf(got)
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after %d frames: %v, want io.EOF", count, err)
		}
	})
}

// TestPutBufPoisonsUnderRace pins the race build's use-after-release trap:
// PutBuf overwrites the whole capacity of a pooled buffer, so a reader that
// kept a released frame decodes garbage (and races with the fill) instead
// of silently passing on the bytes the LIFO pool has not reused yet. A
// normal build releases in O(1) and leaves the bytes alone.
func TestPutBufPoisonsUnderRace(t *testing.T) {
	b := append(wire.GetBuf(), "an 18-byte frame.."...)
	stale := b[:cap(b)] // deliberately retained past the release
	for i := len(b); i < len(stale); i++ {
		stale[i] = 0x11
	}
	wire.PutBuf(b)
	poisoned := 0
	for _, c := range stale {
		if c == 0xDB {
			poisoned++
		}
	}
	want := 0
	if wire.RaceEnabled {
		want = len(stale)
	}
	if poisoned != want {
		t.Fatalf("race=%v: %d of %d released bytes poisoned, want %d", wire.RaceEnabled, poisoned, len(stale), want)
	}
	// Out-of-band buffers are not pooled, so nobody can be handed them: left alone.
	foreign := []byte{1, 2, 3}
	wire.PutBuf(foreign)
	if !bytes.Equal(foreign, []byte{1, 2, 3}) {
		t.Fatalf("foreign slice modified on release: %x", foreign)
	}
}

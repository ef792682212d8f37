package wire

// The live tier's frame-buffer pool and batched I/O primitives. Every
// frame that crosses a hot-path boundary — an Outbound.Send, a node inbox,
// a Mux dispatcher — is a []byte whose ownership travels with it: the
// sender allocates from GetBuf, each hand-off transfers ownership, and the
// final consumer releases with PutBuf once the bytes are dead (for inbound
// frames that is immediately after DecodeFrame, which copies every
// payload field out of the buffer). Nobody may retain a frame after
// releasing it, and nobody may release a frame twice; see DESIGN.md
// ("live-tier hot path") for the full ownership rules.
//
// The pool is processor-local and LIFO (see framePool): a frame crosses it
// four times on its way from one machine to the next, from hundreds of
// goroutines, so it must not be a structure they all serialise on, and the
// buffer it hands out should be the one this processor released last — the
// warm one.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Pooled buffers live in a capacity band: GetBuf never hands out less than
// minPooledCap, and PutBuf silently drops buffers outside the band. The
// floor keeps steady-state protocol frames (tens of bytes) from reallocating
// on append; the ceiling keeps a rare giant frame from parking megabytes in
// the pool forever. The drop-outside-the-band rule also makes foreign
// buffers inert: callers that never heard of the pool (tests that push one
// literal frame many times, say) release small non-pooled slices into a
// no-op.
const (
	minPooledCap = 512
	maxPooledCap = 64 << 10
)

// framePool holds released frame buffers as *[]byte headers in a sync.Pool:
// a private slot and a lock-free stack per P, so GetBuf normally returns
// the buffer this processor released last — still in its cache — and takes
// no lock; another P's stack is raided only when the local one is empty.
// Both properties are load-bearing. Every frame crosses the pool four times
// (flush, peer writer, FrameReader, deliver) from every goroutine of
// every in-process daemon, so one shared structure — a buffered channel was
// measured — costs a fifth of the live tier's CPU in its lock; and a FIFO,
// or a lock-free structure without locality, hands an 18-byte frame the
// coldest of megabytes of buffers (EXPERIMENTS.md E20).
//
// A sync.Pool stores pointers, and boxing a slice header on every Put would
// allocate, so the headers are recycled too: GetBuf empties the header it
// popped and parks it in headerPool, PutBuf takes one from there. Steady
// state therefore allocates nothing. The collector drains both pools over
// two cycles and the next Gets allocate afresh: the 0-allocs/op fences
// tolerate that (testing.AllocsPerRun floors its average), and it bounds
// the pool by the traffic between collections instead of pinning a
// high-water mark for the life of the process. Under -race sync.Pool drops
// a quarter of all Puts on purpose, so the fences count only in normal
// builds (RaceEnabled); race builds poison released buffers instead.
var (
	framePool  sync.Pool // *[]byte, each holding one released in-band buffer
	headerPool sync.Pool // *[]byte emptied by GetBuf, for PutBuf to refill
)

// GetBuf returns an empty frame buffer with at least minPooledCap capacity,
// reusing a released one — at whatever in-band capacity it had grown to —
// when available. The caller owns the buffer until it hands it off or
// releases it with PutBuf.
func GetBuf() []byte {
	h, _ := framePool.Get().(*[]byte)
	if h == nil {
		return make([]byte, 0, minPooledCap)
	}
	b := *h
	*h = nil // a parked header must not pin the buffer it handed out
	headerPool.Put(h)
	return b
}

// PutBuf releases a frame buffer back to the pool. Buffers outside the
// pooled capacity band — including nil — are dropped silently, so releasing
// a buffer that did not come from GetBuf is always safe. The caller must
// not touch b afterwards: the next GetBuf on this processor returns it.
func PutBuf(b []byte) {
	if cap(b) < minPooledCap || cap(b) > maxPooledCap {
		return
	}
	poisonReleased(b)
	h, _ := headerPool.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	framePool.Put(h)
}

// AppendRawFrame appends body as one length-prefixed stream frame to dst
// and returns the extended slice — the only way a frame is put on a
// stream, so a batch of frames coalesces into a single buffer (and a
// single Write syscall). dst is returned unchanged on an oversized body.
func AppendRawFrame(dst, body []byte) ([]byte, error) {
	if len(body) > MaxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame %d", len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	return append(dst, body...), nil
}

// FrameReader reads length-prefixed frames from a stream through one
// buffered reader, handing out pooled frame bodies: the steady-state read
// path performs no per-frame allocation and no small header read syscalls.
type FrameReader struct {
	br  *bufio.Reader
	hdr [4]byte // scratch header; a field so reading it never escapes
	// err is a deferred stream error hit mid-batch: NextBatch returns the
	// frames decoded before the error first, then surfaces err on the next
	// call so no successfully-read frame is lost to a later failure.
	err error
}

// frameReaderBuf sizes the FrameReader's buffered reader: one read syscall
// ingests many small frames.
const frameReaderBuf = 64 << 10

// NewFrameReader wraps r for frame-at-a-time reading.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, frameReaderBuf)}
}

// Next reads one frame body — the primitive NextBatch is built on; live
// readers call NextBatch. The returned slice is pooled: ownership
// transfers to the caller, who must release it with PutBuf once done with
// the bytes (DecodeFrame copies every payload field out, so releasing
// immediately after a decode is safe) — or hand it on to a consumer that
// will. io.EOF at a frame boundary is io.EOF; a stream cut mid-frame is
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	if err := fr.takeErr(); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	return fr.readBody(n)
}

// takeErr consumes a deferred mid-batch error.
func (fr *FrameReader) takeErr() error {
	err := fr.err
	fr.err = nil
	return err
}

// readBody fills a pooled buffer with the next n stream bytes.
func (fr *FrameReader) readBody(n int) ([]byte, error) {
	body := GetBuf()
	if cap(body) < n {
		PutBuf(body)
		body = make([]byte, n)
	} else {
		body = body[:n]
	}
	if _, err := io.ReadFull(fr.br, body); err != nil {
		PutBuf(body)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// NextBatch reads up to max frames in one call, peeking each frame's
// routing header exactly once so downstream dispatchers never re-parse it.
// Decoded frames and their FrameInfos are appended to frames and infos
// (callers pass recycled [:0] slices to keep the steady state
// allocation-free) and the extended slices are returned.
//
// The first frame blocks exactly like Next; after it, frames are taken
// only while they are already fully buffered, so a batch never waits on
// the network for its tail — batch size adapts to what one read syscall
// ingested, preserving per-link arrival order (frames[i] was on the wire
// before frames[i+1]).
//
// A frame whose routing header fails PeekFrame is still returned, with
// infos[i].Bad set: the consumer accounts for it and releases it, and the
// stream keeps going. A stream error mid-batch (cut connection, oversized
// length prefix) is deferred: the frames read before it are returned with
// err == nil, and the next call surfaces the error. Ownership of every
// returned frame transfers to the caller, exactly as with Next.
func (fr *FrameReader) NextBatch(frames [][]byte, infos []FrameInfo, max int) ([][]byte, []FrameInfo, error) {
	if max < 1 {
		max = 1
	}
	if err := fr.takeErr(); err != nil {
		return frames, infos, err
	}
	first, err := fr.Next()
	if err != nil {
		return frames, infos, err
	}
	frames, infos = appendPeeked(frames, infos, first)
	for count := 1; count < max; count++ {
		// Only continue while the header is already buffered: Peek must not
		// block on the network once we hold undelivered frames.
		if fr.br.Buffered() < 4 {
			break
		}
		hdr, perr := fr.br.Peek(4)
		if perr != nil {
			break
		}
		n := int(binary.BigEndian.Uint32(hdr))
		if n > MaxFrame {
			// Poison the stream but deliver the batch first.
			fr.err = fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
			break
		}
		if fr.br.Buffered() < 4+n {
			break
		}
		fr.br.Discard(4)
		body, berr := fr.readBody(n)
		if berr != nil {
			fr.err = berr
			break
		}
		frames, infos = appendPeeked(frames, infos, body)
	}
	return frames, infos, nil
}

// appendPeeked appends one frame and its peeked routing header.
func appendPeeked(frames [][]byte, infos []FrameInfo, body []byte) ([][]byte, []FrameInfo) {
	info, err := PeekFrame(body)
	if err != nil {
		info = FrameInfo{Bad: true}
	}
	return append(frames, body), append(infos, info)
}

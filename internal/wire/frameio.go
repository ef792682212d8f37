package wire

// The live tier's frame-buffer pool and batched I/O primitives. Every
// frame that crosses a hot-path boundary — an Outbound.Send, a node inbox,
// a Mux dispatcher — is a []byte whose ownership travels with it: the
// sender allocates from GetBuf, each hand-off transfers ownership, and the
// final consumer releases with PutBuf once the bytes are dead (for inbound
// frames that is immediately after DecodeMessage, which copies every
// payload field out of the buffer). Nobody may retain a frame after
// releasing it, and nobody may release a frame twice; see DESIGN.md
// ("live-tier hot path") for the full ownership rules.
//
// The pool is a buffered channel rather than a sync.Pool: channel sends
// and receives of []byte values allocate nothing (no interface boxing of
// the slice header) and the pool is not emptied by GC, which makes the
// 0-allocs/op fences in the alloc-budget tests deterministic instead of
// flaky.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// framePool holds released frame buffers. A full pool drops further Puts
// (the buffers become garbage, which is the pre-pool behavior); an empty
// pool makes GetBuf allocate.
var framePool = make(chan []byte, 4096)

// GetBuf returns an empty frame buffer with at least minPooledCap capacity,
// reusing a released one when available. The caller owns the buffer until
// it hands it off or releases it with PutBuf.
func GetBuf() []byte {
	select {
	case b := <-framePool:
		return b[:0]
	default:
		return make([]byte, 0, minPooledCap)
	}
}

// PutBuf releases a frame buffer back to the pool. Buffers outside the
// pooled capacity band — including nil — are dropped silently, so releasing
// a buffer that did not come from GetBuf is always safe. The caller must
// not touch b afterwards.
func PutBuf(b []byte) {
	if cap(b) < minPooledCap || cap(b) > maxPooledCap {
		return
	}
	select {
	case framePool <- b[:0]:
	default:
	}
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
// the bytes (DecodeMessage copies every payload field out, so releasing
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

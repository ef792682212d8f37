// Package wire is the versioned binary codec of the live node runtime: it
// serializes every protocol message the repository's machines exchange —
// BW's VAL and COMPLETE floods, the crash-fault and iterative value
// payloads, the RBC traffic (with the shared numeric and AAD report
// contents), and the exact tier's ABA votes — into a deterministic,
// length-prefixed frame format suitable for real network links.
//
// # Format
//
// A frame on a stream is a 4-byte big-endian body length followed by the
// body. A body is:
//
//	byte    version (currently 7)
//	uvarint instance id (0 for single-shot runs)
//	uvarint from
//	uvarint to
//	uvarint count (at least 1)
//	count times, in send order:
//	  byte  payload type (one of the type* constants)
//	  ...   payload-specific fields
//
// A frame carries one or more consecutive messages of one link (from, to)
// of one instance: a live node sends one frame per destination per
// delivery burst, so a link's run of messages shares one header and one
// trip through the transport. The paper's links are reliable, FIFO and
// sender-authenticated, so bundling a link's consecutive messages changes
// nothing a protocol can observe. An Open never shares a frame: a
// multi-message frame holding one is malformed.
//
// The instance id multiplexes many concurrent consensus instances over one
// persistent connection — the service tier's pipelining unit. One-shot
// runs (cluster.RunTCP) encode and accept instance 0; the service daemon
// stamps per-instance ids and routes inbound frames by PeekFrame without
// paying a full decode. AppendInstanceMessage writes a one-message frame
// and DecodeInstanceMessage reads one; AppendFrame writes a link's run of
// messages and DecodeFrame reads every message of a frame.
//
// Integers are unsigned varints, floats are IEEE-754 bits in big-endian
// order, byte strings are uvarint-length-prefixed. No path is spelled out:
// BW's and the crash-fault flood's messages name every path by its entry in
// a path table (see bw.ValPayload, crashapprox.ValPayload), an unsigned
// varint that fits an int32. Map-valued
// contents (AAD reports) are serialized in sorted key order, so encoding is
// a pure function of the message value: equal messages produce equal bytes
// on every node, and re-encoding a decoded message reproduces the input
// bytes exactly (the canonical-form property the fuzz tests enforce).
//
// The simulator-assigned Message.Seq is a property of the central in-flight
// pool, not of the message, and does not travel: frames decode with Seq 0
// and the receiving runtime assigns its own local delivery order.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/aad"
	"repro/internal/aba"
	"repro/internal/bw"
	"repro/internal/crashapprox"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/rbc"
	"repro/internal/transport"
)

// Version is the codec version emitted and accepted by this build.
// Version 2 widened the node-id domain to MaxNodes = 1024: COMPLETE tags
// became member lists (previously one packed uint64) and entry path keys
// two bytes per node — a version-1 peer would misdecode rather than
// cleanly reject, hence the bump. Version 3 added the exact tier's ABA
// payload (typeABA); the addition is backward-compatible byte-wise, but a
// version-2 peer in an ABA/ACS cluster would silently drop the frames it
// does not know and stall the protocol, so the bump turns a silent stall
// into a loud handshake failure. Version 4 inserted the instance id
// between the version byte and the sender — every frame now names the
// consensus instance it belongs to — and added the service tier's OPEN
// control payload; a version-3 peer would misread the instance varint as
// its From field, so the bump again turns misdecoding into a handshake
// failure. Version 5 replaced BW's spelled-out paths — the VAL path, the
// COMPLETE propagation path and each COMPLETE entry's path key — by table
// entry ids; a version-4 peer would read an id as a path length. Version 6
// did the same for the crash-fault flood's CRASH-VAL path, the last path
// the codec spelled out; a version-5 peer would read the id as a path
// length. Version 7 put a message count after the header, so one frame
// carries a run of one link's messages; a version-6 peer would read the
// count as a payload type.
const Version = 7

// MaxFrame bounds a frame body: AppendRawFrame refuses to write a larger
// one and FrameReader rejects larger length prefixes before allocating, so
// a corrupt or hostile peer cannot trigger huge allocations.
const MaxFrame = 16 << 20

// Sanity caps on decoded collection sizes. Entry sets and report maps are
// bounded by what MaxFrame can carry, but an explicit count cap fails fast
// on corrupt headers instead of over-allocating.
const (
	maxEntries = 1 << 20
	maxTagLen  = 1 << 12
)

// Payload type tags.
const (
	typeBWVal      = 1 // bw.ValPayload
	typeBWComplete = 2 // bw.CompletePayload
	typeCrashVal   = 3 // crashapprox.ValPayload
	typeIterVal    = 4 // iterative.ValPayload
	typeRBC        = 5 // rbc.Msg
	typeABA        = 6 // aba.Msg
	typeOpen       = 7 // Open (service-tier instance announcement)
)

// Open is the service tier's instance-announcement control payload: the
// daemon that admits a new consensus instance floods one Open per
// out-edge before its machine sends any protocol traffic, and every
// daemon that first learns of the instance re-floods it. Because each
// connection is FIFO, an Open always precedes its sender's protocol
// frames for that instance; receivers therefore construct the instance's
// machine before its traffic arrives (frames racing ahead of an Open from
// a third party wait in a bounded pending buffer). Opens are consumed by
// the daemon's dispatch layer and never reach protocol machines.
type Open struct {
	// Protocol names the registered protocol the instance runs.
	Protocol string
}

// Kind implements transport.Payload.
func (Open) Kind() string { return "OPEN" }

// RBC content type tags.
const (
	contentNum    = 1 // rbc.Num (aad.Num is an alias)
	contentReport = 2 // aad.Report
)

// EncodeInstanceMessage renders m as one frame body (without the stream
// length prefix) belonging to the given consensus instance: 0 in a
// one-shot run, the service tier's pipelining unit otherwise. It fails on
// payload types the codec does not know and on messages with negative
// coordinates.
func EncodeInstanceMessage(inst uint64, m transport.Message) ([]byte, error) {
	return AppendInstanceMessage(nil, inst, m)
}

// AppendInstanceMessage appends a frame body carrying m alone, under the
// given instance id, to dst and returns the extended slice.
func AppendInstanceMessage(dst []byte, inst uint64, m transport.Message) ([]byte, error) {
	if m.From < 0 || m.To < 0 {
		return nil, fmt.Errorf("wire: negative node id in %d->%d", m.From, m.To)
	}
	dst = appendHeader(dst, inst, m.From, m.To)
	dst = append(dst, 1)
	return appendPayload(dst, m.Payload, m.From, m.To)
}

// AppendFrame appends one frame body under the given instance id carrying
// the longest prefix of msgs that fits MaxFrame — always at least one
// message — in order, and returns the extended slice and the number of
// messages it carries; a caller sends the rest in further frames. Every
// message must travel the link of msgs[0], and an Open travels alone.
func AppendFrame(dst []byte, inst uint64, msgs []transport.Message) ([]byte, int, error) {
	if len(msgs) == 0 {
		return nil, 0, fmt.Errorf("wire: a frame carries at least one message")
	}
	from, to := msgs[0].From, msgs[0].To
	if from < 0 || to < 0 {
		return nil, 0, fmt.Errorf("wire: negative node id in %d->%d", from, to)
	}
	start := len(dst)
	dst = appendHeader(dst, inst, from, to)
	// The count is written as one byte and widened once it is known: runs
	// of 128 messages or more are rare enough to pay one copy. A body that
	// passes MaxFrame less the widening's few bytes ends the frame.
	countAt := len(dst)
	dst = append(dst, 0)
	n := 0
	for i := range msgs {
		m := &msgs[i]
		if m.From != from || m.To != to {
			return nil, 0, fmt.Errorf("wire: message %d->%d in a frame of link %d->%d", m.From, m.To, from, to)
		}
		if len(msgs) > 1 {
			if _, open := m.Payload.(Open); open {
				return nil, 0, fmt.Errorf("wire: an open announcement cannot share a frame")
			}
		}
		end := len(dst)
		var err error
		if dst, err = appendPayload(dst, m.Payload, from, to); err != nil {
			return nil, 0, err
		}
		if n > 0 && len(dst)-start > MaxFrame-binary.MaxVarintLen32 {
			dst = dst[:end]
			break
		}
		n++
	}
	if w := uvarintLen(uint64(n)); w > 1 {
		end := len(dst)
		dst = append(dst, make([]byte, w-1)...)
		copy(dst[countAt+w:], dst[countAt+1:end])
	}
	binary.PutUvarint(dst[countAt:], uint64(n))
	return dst, n, nil
}

// uvarintLen is the encoded width of v.
func uvarintLen(v uint64) int {
	w := 1
	for ; v >= 0x80; v >>= 7 {
		w++
	}
	return w
}

// appendHeader appends a frame's version and link header.
func appendHeader(dst []byte, inst uint64, from, to int) []byte {
	dst = append(dst, Version)
	dst = appendUint(dst, inst)
	dst = appendUint(dst, uint64(from))
	return appendUint(dst, uint64(to))
}

// appendPayload appends one payload: its type tag and its fields. from and
// to only name the message in errors.
func appendPayload(dst []byte, payload transport.Payload, from, to int) ([]byte, error) {
	switch p := payload.(type) {
	case bw.ValPayload:
		if p.Entry < 0 {
			return nil, fmt.Errorf("wire: bw val with negative entry %d", p.Entry)
		}
		dst = append(dst, typeBWVal)
		dst = appendUint(dst, uint64(p.Round))
		dst = appendFloat(dst, p.Value)
		dst = appendUint(dst, uint64(p.Entry))
	case bw.CompletePayload:
		if p.Entry < 0 {
			return nil, fmt.Errorf("wire: bw complete with negative entry %d", p.Entry)
		}
		dst = append(dst, typeBWComplete)
		dst = appendUint(dst, uint64(p.Round))
		dst = appendUint(dst, uint64(p.Origin))
		dst = appendUint(dst, uint64(p.Seq))
		dst = appendSet(dst, p.Tag)
		dst = appendUint(dst, uint64(len(p.Entries)))
		for _, e := range p.Entries {
			if e.Entry < 0 {
				return nil, fmt.Errorf("wire: bw complete entry with negative id %d", e.Entry)
			}
			dst = appendUint(dst, uint64(e.Entry))
			dst = appendFloat(dst, e.Value)
		}
		dst = appendUint(dst, uint64(p.Entry))
	case crashapprox.ValPayload:
		if p.Entry < 0 {
			return nil, fmt.Errorf("wire: crash val with negative entry %d", p.Entry)
		}
		dst = append(dst, typeCrashVal)
		dst = appendUint(dst, uint64(p.Round))
		dst = appendFloat(dst, p.Value)
		dst = appendUint(dst, uint64(p.Entry))
	case iterative.ValPayload:
		dst = append(dst, typeIterVal)
		dst = appendUint(dst, uint64(p.Round))
		dst = appendFloat(dst, p.Value)
	case rbc.Msg:
		dst = append(dst, typeRBC)
		if p.Phase < rbc.PhaseInit || p.Phase > rbc.PhaseReady {
			return nil, fmt.Errorf("wire: rbc message with phase %v", p.Phase)
		}
		dst = append(dst, byte(p.Phase))
		dst = appendUint(dst, uint64(p.Origin))
		dst = appendBytes(dst, []byte(p.Tag))
		var err error
		if dst, err = appendContent(dst, p.Content); err != nil {
			return nil, err
		}
	case aba.Msg:
		dst = append(dst, typeABA)
		if p.Phase < aba.PhaseBval || p.Phase > aba.PhaseDone {
			return nil, fmt.Errorf("wire: aba message with phase %v", p.Phase)
		}
		if p.Value < 0 || p.Value > 1 {
			return nil, fmt.Errorf("wire: aba message with value %d", p.Value)
		}
		if p.Inst < 0 || p.Round < 0 {
			return nil, fmt.Errorf("wire: aba message with negative inst %d or round %d", p.Inst, p.Round)
		}
		dst = append(dst, byte(p.Phase))
		dst = appendUint(dst, uint64(p.Inst))
		dst = appendUint(dst, uint64(p.Round))
		dst = append(dst, byte(p.Value))
	case Open:
		if p.Protocol == "" {
			return nil, fmt.Errorf("wire: open announcement with empty protocol")
		}
		if len(p.Protocol) > maxTagLen {
			return nil, fmt.Errorf("wire: open announcement protocol name of %d bytes exceeds %d", len(p.Protocol), maxTagLen)
		}
		dst = append(dst, typeOpen)
		dst = appendBytes(dst, []byte(p.Protocol))
	case nil:
		return nil, fmt.Errorf("wire: message %d->%d has no payload", from, to)
	default:
		return nil, fmt.Errorf("wire: unencodable payload type %T (kind %q)", payload, payload.Kind())
	}
	return dst, nil
}

func appendContent(dst []byte, c rbc.Content) ([]byte, error) {
	switch v := c.(type) {
	case rbc.Num:
		dst = append(dst, contentNum)
		return appendFloat(dst, float64(v)), nil
	case aad.Report:
		dst = append(dst, contentReport)
		dst = appendUint(dst, uint64(len(v)))
		prev := -1
		for _, e := range v {
			if e.Origin <= prev {
				return nil, fmt.Errorf("wire: report origin %d after %d, want non-negative and strictly ascending", e.Origin, prev)
			}
			prev = e.Origin
			dst = appendUint(dst, uint64(e.Origin))
			dst = appendFloat(dst, e.Value)
		}
		return dst, nil
	case nil:
		return nil, fmt.Errorf("wire: rbc message with nil content")
	default:
		return nil, fmt.Errorf("wire: unencodable rbc content type %T", c)
	}
}

// DecodeInstanceMessage parses a frame body that carries exactly one
// message and returns the consensus instance it belongs to alongside the
// message. A frame of several messages is an error here; DecodeFrame reads
// those.
func DecodeInstanceMessage(data []byte) (uint64, transport.Message, error) {
	d := decoder{buf: data}
	inst, from, to, n := d.header()
	if d.err == nil && n != 1 {
		d.fail("frame carries %d messages, want 1", n)
	}
	m := transport.Message{From: from, To: to, Payload: d.payload()}
	if err := d.finish(); err != nil {
		return 0, transport.Message{}, err
	}
	return inst, m, nil
}

// DecodeFrame parses one frame body and appends every message it carries,
// in order, to dst; it returns the instance id and the extended slice. On
// error dst comes back at its original length. Every payload field is
// copied out of data, so the caller may release the frame right after.
func DecodeFrame(data []byte, dst []transport.Message) (uint64, []transport.Message, error) {
	d := decoder{buf: data}
	inst, from, to, n := d.header()
	keep := len(dst)
	for i := 0; i < n && d.err == nil; i++ {
		p := d.payload()
		if n > 1 {
			if _, open := p.(Open); open {
				d.fail("open announcement in a frame of %d messages", n)
			}
		}
		dst = append(dst, transport.Message{From: from, To: to, Payload: p})
	}
	if err := d.finish(); err != nil {
		clear(dst[keep:])
		return 0, dst[:keep], err
	}
	return inst, dst, nil
}

// header decodes a frame's version and link header and its message count.
// Every payload takes at least its type byte, so a count past the bytes
// left fails here rather than in a long loop.
func (d *decoder) header() (inst uint64, from, to, count int) {
	version := d.byte()
	if d.err == nil && version != Version {
		d.err = fmt.Errorf("wire: unsupported version %d (this build speaks %d)", version, Version)
	}
	inst = d.uint()
	from = d.intVal()
	to = d.intVal()
	count = d.count(len(d.buf) - d.off)
	if d.err == nil && count == 0 {
		d.fail("frame carries no message")
	}
	return inst, from, to, count
}

// finish reports the first decode failure, or trailing bytes after the
// last payload: a frame carries exactly its counted messages.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

// payload decodes one payload: its type tag and its fields.
func (d *decoder) payload() transport.Payload {
	switch kind := d.byte(); kind {
	case typeBWVal:
		return bw.ValPayload{Round: d.intVal(), Value: d.float(), Entry: d.entry()}
	case typeBWComplete:
		p := bw.CompletePayload{
			Round:  d.intVal(),
			Origin: d.intVal(),
			Seq:    d.intVal(),
			Tag:    d.set(),
		}
		n := d.count(maxEntries)
		if n > 0 {
			p.Entries = make([]bw.ValEntry, 0, min(n, 4096))
			for i := 0; i < n && d.err == nil; i++ {
				p.Entries = append(p.Entries, bw.ValEntry{Entry: d.entry(), Value: d.float()})
			}
		}
		p.Entry = d.entry()
		return p
	case typeCrashVal:
		return crashapprox.ValPayload{Round: d.intVal(), Value: d.float(), Entry: d.entry()}
	case typeIterVal:
		return iterative.ValPayload{Round: d.intVal(), Value: d.float()}
	case typeRBC:
		p := rbc.Msg{Phase: rbc.Phase(d.byte())}
		if d.err == nil && (p.Phase < rbc.PhaseInit || p.Phase > rbc.PhaseReady) {
			d.fail("rbc frame with phase %d", int(p.Phase))
		}
		p.Origin = d.intVal()
		p.Tag = string(d.bytes(maxTagLen))
		p.Content = d.content()
		return p
	case typeABA:
		p := aba.Msg{Phase: aba.Phase(d.byte())}
		if d.err == nil && (p.Phase < aba.PhaseBval || p.Phase > aba.PhaseDone) {
			d.fail("aba frame with phase %d", int(p.Phase))
		}
		p.Inst = d.intVal()
		p.Round = d.intVal()
		v := d.byte()
		if d.err == nil && v > 1 {
			d.fail("aba frame with value %d", v)
		}
		p.Value = int(v)
		return p
	case typeOpen:
		p := Open{Protocol: string(d.bytes(maxTagLen))}
		if d.err == nil && p.Protocol == "" {
			d.fail("open frame with empty protocol")
		}
		return p
	default:
		d.fail("unknown payload type %d", kind)
		return nil
	}
}

// FrameInfo is the routing header of one frame — everything a multiplexing
// dispatcher needs, decoded without touching the payload fields.
type FrameInfo struct {
	// Inst is the consensus instance the frame belongs to (0 single-shot).
	Inst uint64
	// From and To are the frame's claimed endpoints.
	From, To int
	// Open reports whether the payload is the service tier's instance
	// announcement (which the dispatcher consumes) rather than protocol
	// traffic (which it routes to the instance's machine).
	Open bool
	// Bad reports that the frame body's routing header did not parse.
	// NextBatch sets it instead of failing the whole batch: the frame is
	// still delivered (a dispatcher counts and releases it) and the
	// connection stays up — one unparseable frame does not kill the link.
	Bad bool
}

// PeekFrame decodes only a frame body's routing header: version check,
// instance id, endpoints, the message count and whether the frame is an
// Open announcement — the first payload's type byte. The service daemon's
// per-connection readers route every inbound frame through this — a
// handful of varints — and leave the full payload decode to the one
// node that consumes the frame. A multi-message frame that
// opens with an Open fails here; one that hides an Open further in fails
// the full decode.
func PeekFrame(data []byte) (FrameInfo, error) {
	d := decoder{buf: data}
	var info FrameInfo
	var n int
	info.Inst, info.From, info.To, n = d.header()
	info.Open = d.byte() == typeOpen
	if d.err == nil && info.Open && n > 1 {
		d.fail("open announcement in a frame of %d messages", n)
	}
	if d.err != nil {
		return FrameInfo{}, d.err
	}
	return info, nil
}

func appendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendSet encodes a node set as its strictly ascending member list — a
// pure function of the set value, so equal sets produce equal bytes.
func appendSet(dst []byte, s graph.Set) []byte {
	dst = appendUint(dst, uint64(s.Count()))
	s.ForEach(func(v int) bool {
		dst = appendUint(dst, uint64(v))
		return true
	})
	return dst
}

// decoder is a cursor over a frame body with sticky error handling: after
// the first failure every accessor returns a zero value, so decode paths
// read linearly and check d.err once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated frame (want byte at offset %d)", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// intVal decodes a uvarint that must fit a non-negative int.
func (d *decoder) intVal() int {
	v := d.uint()
	if d.err == nil && v > math.MaxInt32 {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// entry decodes a path-table entry id: a uvarint that fits an int32, so
// neither a negative id (whose two's complement is past the range) nor one
// past int32 decodes.
func (d *decoder) entry() int32 {
	return int32(d.intVal())
}

// count decodes a collection length bounded by cap.
func (d *decoder) count(capacity int) int {
	n := d.intVal()
	if d.err == nil && n > capacity {
		d.fail("collection length %d exceeds cap %d", n, capacity)
		return 0
	}
	return n
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// bytes decodes a length-prefixed byte string; empty decodes to nil so that
// decoded payloads match their zero-valued originals exactly.
func (d *decoder) bytes(capacity int) []byte {
	n := d.count(capacity)
	if d.err != nil || n == 0 {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated byte string at offset %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// set decodes a node set written by appendSet, enforcing the canonical
// strictly ascending order and the MaxNodes id range.
func (d *decoder) set() graph.Set {
	n := d.count(graph.MaxNodes)
	var s graph.Set
	prev := -1
	for i := 0; i < n && d.err == nil; i++ {
		v := d.intVal()
		if d.err != nil {
			break
		}
		if v <= prev || v >= graph.MaxNodes {
			d.fail("set member %d out of order or range", v)
			break
		}
		prev = v
		s = s.Add(v)
	}
	return s
}

func (d *decoder) content() rbc.Content {
	switch kind := d.byte(); kind {
	case contentNum:
		return rbc.Num(d.float())
	case contentReport:
		n := d.count(maxEntries)
		// Pre-size by the graph bound, not the claimed count: a corrupt
		// header must not buy a huge allocation before the first truncated
		// field fails the decode (legitimate reports have one entry per
		// node, so at most graph.MaxNodes).
		rep := make(aad.Report, 0, min(n, graph.MaxNodes))
		prev := -1
		for i := 0; i < n && d.err == nil; i++ {
			e := aad.Entry{Origin: d.intVal(), Value: d.float()}
			if d.err == nil && e.Origin <= prev {
				d.fail("report origin %d after %d, want strictly ascending", e.Origin, prev)
			}
			prev = e.Origin
			rep = append(rep, e)
		}
		if d.err != nil {
			return nil
		}
		return rep
	default:
		d.fail("unknown rbc content type %d", kind)
		return nil
	}
}

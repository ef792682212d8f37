package wire_test

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aad"
	"repro/internal/aba"
	"repro/internal/bw"
	"repro/internal/crashapprox"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/rbc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sampleMessages covers every payload type and the boundary shapes the
// codec must preserve: path-table entry ids from 0 to the largest int32,
// NaN and infinite values, multi-entry COMPLETE sets,
// all three RBC phases and both content types.
func sampleMessages() []transport.Message {
	return []transport.Message{
		{From: 0, To: 1, Payload: bw.ValPayload{Round: 1, Value: 2.5, Entry: 0}},
		{From: 3, To: 7, Payload: bw.ValPayload{Round: 12, Value: math.Inf(-1), Entry: 31542}},
		{From: 2, To: 0, Payload: bw.ValPayload{Round: 0, Value: math.NaN(), Entry: math.MaxInt32}},
		{From: 1, To: 2, Payload: bw.CompletePayload{
			Round: 3, Origin: 1, Seq: 9, Tag: graph.SetOf(2, 5),
			Entries: []bw.ValEntry{
				{Value: -1.25, Entry: 0},
				{Value: 7, Entry: 300},
				{Value: 0.5, Entry: math.MaxInt32},
			},
			Entry: 4,
		}},
		{From: 5, To: 4, Payload: bw.CompletePayload{Round: 1, Origin: 5, Tag: graph.EmptySet}},
		{From: 0, To: 63, Payload: crashapprox.ValPayload{Round: 2, Value: 0.125, Entry: 0}},
		{From: 5, To: 6, Payload: crashapprox.ValPayload{Round: 3, Value: math.Inf(1), Entry: math.MaxInt32}},
		{From: 9, To: 8, Payload: iterative.ValPayload{Round: 4, Value: -3}},
		{From: 0, To: 1, Payload: rbc.Msg{Phase: rbc.PhaseInit, Origin: 0, Tag: "r1/value", Content: aad.Num(1.5)}},
		{From: 1, To: 2, Payload: rbc.Msg{Phase: rbc.PhaseEcho, Origin: 0, Tag: "r2/report",
			Content: aad.Report{{Origin: 0, Value: 1}, {Origin: 2, Value: math.Pi}, {Origin: 3, Value: -2.5}}}},
		{From: 2, To: 3, Payload: rbc.Msg{Phase: rbc.PhaseReady, Origin: 2, Tag: "", Content: aad.Num(math.NaN())}},
		{From: 0, To: 1, Payload: aba.Msg{Inst: 0, Round: 1, Phase: aba.PhaseBval, Value: 0}},
		{From: 3, To: 2, Payload: aba.Msg{Inst: 6, Round: 300, Phase: aba.PhaseAux, Value: 1}},
		{From: 1, To: 0, Payload: aba.Msg{Inst: 1023, Round: 0, Phase: aba.PhaseDone, Value: 1}},
		{From: 0, To: 7, Payload: wire.Open{Protocol: "acs"}},
		{From: 6, To: 2, Payload: wire.Open{Protocol: "bw"}},
	}
}

// equalMessage compares messages with NaN-aware float semantics: the codec
// must preserve NaN payloads (it round-trips bits), which reflect.DeepEqual
// would reject.
func equalMessage(a, b transport.Message) bool {
	ab, errA := wire.EncodeInstanceMessage(0, a)
	bb, errB := wire.EncodeInstanceMessage(0, b)
	return errA == nil && errB == nil && bytes.Equal(ab, bb) &&
		a.From == b.From && a.To == b.To && a.Seq == b.Seq
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		body, err := wire.EncodeInstanceMessage(0, m)
		if err != nil {
			t.Fatalf("encode %v: %v", m, err)
		}
		_, got, err := wire.DecodeInstanceMessage(body)
		if err != nil {
			t.Fatalf("decode %v: %v", m, err)
		}
		if !equalMessage(m, got) {
			t.Fatalf("round trip changed message:\n in: %#v\nout: %#v", m, got)
		}
		// Everything except NaN-carrying payloads must also round-trip under
		// deep equality (structure, not just bytes).
		if !hasNaN(m) && !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip not deep-equal:\n in: %#v\nout: %#v", m, got)
		}
	}
}

func hasNaN(m transport.Message) bool {
	switch p := m.Payload.(type) {
	case bw.ValPayload:
		return math.IsNaN(p.Value)
	case rbc.Msg:
		n, ok := p.Content.(aad.Num)
		return ok && math.IsNaN(float64(n))
	default:
		return false
	}
}

// TestFrameStream sends every sample message down the one live frame path
// — encode, AppendRawFrame into a coalesced stream, FrameReader.NextBatch,
// decode — and expects the same messages in order, then io.EOF at the
// frame boundary. (Truncation and MaxFrame rejection on the same reader:
// TestFrameReaderCutMidFrame, TestFrameReaderRejectsOversizeHeader.)
func TestFrameStream(t *testing.T) {
	msgs := sampleMessages()
	var stream []byte
	for _, m := range msgs {
		body, err := wire.EncodeInstanceMessage(0, m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if stream, err = wire.AppendRawFrame(stream, body); err != nil {
			t.Fatalf("append frame: %v", err)
		}
	}
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	var got []transport.Message
	for len(got) < len(msgs) {
		frames, infos, err := fr.NextBatch(nil, nil, 4)
		if err != nil {
			t.Fatalf("after %d frames: %v", len(got), err)
		}
		for i, f := range frames {
			if infos[i].Bad {
				t.Fatalf("frame %d: routing header did not parse", len(got))
			}
			_, m, err := wire.DecodeInstanceMessage(f)
			wire.PutBuf(f)
			if err != nil {
				t.Fatalf("frame %d: %v", len(got), err)
			}
			got = append(got, m)
		}
	}
	for i, want := range msgs {
		if !equalMessage(want, got[i]) {
			t.Fatalf("frame %d changed: in %#v out %#v", i, want, got[i])
		}
	}
	if _, _, err := fr.NextBatch(nil, nil, 4); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	valid, err := wire.EncodeInstanceMessage(0, sampleMessages()[0])
	if err != nil {
		t.Fatal(err)
	}
	// frame builds a body on valid's link header (version, instance 0, from
	// 0, to 1: one byte each) with the given count byte and payload bytes.
	const countAt = 4
	frame := func(count byte, payloads ...[]byte) []byte {
		f := append(append([]byte(nil), valid[:countAt]...), count)
		for _, p := range payloads {
			f = append(f, p...)
		}
		return f
	}
	val := valid[countAt+1:]
	openFrame, err := wire.EncodeInstanceMessage(0, transport.Message{From: 0, To: 1, Payload: wire.Open{Protocol: "acs"}})
	if err != nil {
		t.Fatal(err)
	}
	open := openFrame[countAt+1:]
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad version", append([]byte{99}, valid[1:]...), "unsupported version"},
		{"unknown payload type", []byte{wire.Version, 0, 0, 1, 1, 200}, "unknown payload type"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAA), "trailing"},
		{"truncated payload", valid[:len(valid)-3], "truncated"},
		// The frame shape's own rejections: a count of zero, a count that
		// runs past the body, an Open sharing a frame (first or later), and
		// bytes after the last counted payload.
		{"count 0", frame(0), "no message"},
		{"count 0 with a payload", frame(0, val), "no message"},
		{"count past the body", frame(3, val, val), "truncated"},
		{"count past the bytes left", frame(0x7f, val), "exceeds cap"},
		{"open after a message", frame(2, val, open), "open announcement"},
		{"open before a message", frame(2, open, val), "open announcement"},
		{"multi-message trailing bytes", frame(2, val, val, []byte{0xAA}), "trailing"},
	}
	for name, h := range badEntryFrames {
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{name, mustHex(t, h), "out of range"})
	}
	for _, tc := range cases {
		keep := []transport.Message{sampleMessages()[7]}
		_, got, err := wire.DecodeFrame(tc.data, keep)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
		if len(got) != 1 {
			t.Errorf("%s: a failed decode left %d messages in dst, want the 1 it held", tc.name, len(got))
		}
		if _, _, err := wire.DecodeInstanceMessage(tc.data); err == nil {
			t.Errorf("%s: DecodeInstanceMessage accepted the frame", tc.name)
		}
	}
	// A well-formed frame of two messages is DecodeFrame's, not
	// DecodeInstanceMessage's: the one-message decode reads exactly one.
	if _, _, err := wire.DecodeInstanceMessage(frame(2, val, val)); err == nil || !strings.Contains(err.Error(), "want 1") {
		t.Errorf("two-message frame: want DecodeInstanceMessage to refuse it, got %v", err)
	}
	if _, err := wire.PeekFrame(frame(2, open, val)); err == nil {
		t.Error("PeekFrame routed a multi-message frame led by an Open")
	}
}

// badEntryFrames are frames naming a path by an id that fits no int32: a
// BW VAL's and a CRASH-VAL's id at 2^31, at uint32(-1) and at int64(-1) as
// uvarints, and a COMPLETE's entry, then its propagation path, at 2^31.
var badEntryFrames = map[string]string{
	"val entry 2^31":             "070000010101014004000000000000" + "8080808008",
	"val entry uint32(-1)":       "070000010101014004000000000000" + "ffffffff0f",
	"val entry int64(-1)":        "070000010101014004000000000000" + "ffffffffffffffffff01",
	"crash val entry 2^31":       "070000010103014004000000000000" + "8080808008",
	"crash val entry uint32(-1)": "070000010103014004000000000000" + "ffffffff0f",
	"crash val entry int64(-1)":  "070000010103014004000000000000" + "ffffffffffffffffff01",
	"complete entry 2^31":        "0700010201020301090001" + "8080808008" + "bff4000000000000" + "00",
	"complete path entry 2^31":   "0700010201020301090001" + "00" + "bff4000000000000" + "8080808008",
}

// mustHex decodes a hand-written frame.
func mustHex(tb testing.TB, h string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestEncodeRejectsNegativeEntry: a path-table entry id is never negative,
// and the encoder puts none on the wire.
func TestEncodeRejectsNegativeEntry(t *testing.T) {
	for name, p := range map[string]transport.Payload{
		"val":            bw.ValPayload{Round: 1, Entry: -1},
		"crash val":      crashapprox.ValPayload{Round: 1, Entry: -1},
		"complete path":  bw.CompletePayload{Round: 1, Entry: math.MinInt32},
		"complete entry": bw.CompletePayload{Round: 1, Entries: []bw.ValEntry{{Value: 1, Entry: 2}, {Value: 1, Entry: -3}}},
	} {
		if _, err := wire.EncodeInstanceMessage(0, transport.Message{From: 0, To: 1, Payload: p}); err == nil {
			t.Errorf("%s: encode accepted %+v", name, p)
		}
	}
}

func TestEncodeRejectsUnknownPayload(t *testing.T) {
	if _, err := wire.EncodeInstanceMessage(0, transport.Message{Payload: fakePayload{}}); err == nil {
		t.Fatal("want error for unknown payload type")
	}
	if _, err := wire.EncodeInstanceMessage(0, transport.Message{From: 0, To: 1}); err == nil {
		t.Fatal("want error for nil payload")
	}
	if _, err := wire.EncodeInstanceMessage(0, transport.Message{From: -1, To: 1,
		Payload: iterative.ValPayload{}}); err == nil {
		t.Fatal("want error for negative node id")
	}
}

// TestEncodeRejectsBadABA pins the encoder-side validation of ABA frames:
// a hostile or buggy machine cannot put out-of-domain votes on the wire.
func TestEncodeRejectsBadABA(t *testing.T) {
	for name, p := range map[string]aba.Msg{
		"value 2":        {Inst: 0, Round: 1, Phase: aba.PhaseBval, Value: 2},
		"negative value": {Inst: 0, Round: 1, Phase: aba.PhaseBval, Value: -1},
		"phase 0":        {Inst: 0, Round: 1, Phase: 0, Value: 1},
		"phase 9":        {Inst: 0, Round: 1, Phase: aba.Phase(9), Value: 1},
		"negative inst":  {Inst: -1, Round: 1, Phase: aba.PhaseAux, Value: 1},
		"negative round": {Inst: 0, Round: -1, Phase: aba.PhaseAux, Value: 1},
	} {
		if _, err := wire.EncodeInstanceMessage(0, transport.Message{From: 0, To: 1, Payload: p}); err == nil {
			t.Errorf("%s: encode accepted %+v", name, p)
		}
	}
}

type fakePayload struct{}

func (fakePayload) Kind() string { return "FAKE" }

// TestGoldenWireVectors pins the exact on-wire bytes of one representative
// message per payload type at codec version 7, including instance-stamped
// frames (the service tier's multiplexing header) and path-table entry ids
// at 0, at a one- and a two-byte varint and at the largest int32. These are a
// compatibility contract: any codec change that alters them is a wire
// break and must come with a Version bump and a regenerated table, not a
// silent edit.
func TestGoldenWireVectors(t *testing.T) {
	vectors := []struct {
		inst uint64
		msg  transport.Message
		hex  string
	}{
		{0, transport.Message{From: 0, To: 1, Payload: bw.ValPayload{Round: 1, Value: 2.5, Entry: 0}},
			"07000001010101400400000000000000"},
		{0, transport.Message{From: 3, To: 7, Payload: bw.ValPayload{Round: 12, Value: -1, Entry: math.MaxInt32}},
			"0700030701010c" + "bff0000000000000" + "ffffffff07"},
		{0, transport.Message{From: 1, To: 2, Payload: bw.CompletePayload{
			Round: 3, Origin: 1, Seq: 9, Tag: graph.SetOf(2, 5),
			Entries: []bw.ValEntry{{Value: -1.25, Entry: 0}, {Value: 7, Entry: 300}},
			Entry:   4,
		}}, "07000102010203010902020502" + "00bff4000000000000" + "ac02401c000000000000" + "04"},
		{0, transport.Message{From: 2, To: 0, Payload: bw.CompletePayload{
			Round: 1, Origin: 2, Seq: 1, Tag: graph.EmptySet,
			Entries: []bw.ValEntry{{Value: 0.5, Entry: math.MaxInt32}},
			Entry:   math.MaxInt32,
		}}, "0700020001020102010001" + "ffffffff073fe0000000000000" + "ffffffff07"},
		{0, transport.Message{From: 0, To: 3, Payload: crashapprox.ValPayload{Round: 2, Value: 0.125, Entry: 5}},
			"070000030103023fc0000000000000" + "05"},
		{0, transport.Message{From: 9, To: 8, Payload: iterative.ValPayload{Round: 4, Value: -3}},
			"07000908010404c008000000000000"},
		{0, transport.Message{From: 0, To: 1, Payload: rbc.Msg{Phase: rbc.PhaseInit, Origin: 0, Tag: "acs/v", Content: rbc.Num(1.5)}},
			"0700000101050100056163732f76013ff8000000000000"},
		{0, transport.Message{From: 1, To: 2, Payload: rbc.Msg{Phase: rbc.PhaseEcho, Origin: 0, Tag: "r2/report",
			Content: aad.Report{{Origin: 0, Value: 1}, {Origin: 2, Value: -2.5}}}},
			"07000102010502000972322f7265706f72740202003ff000000000000002c004000000000000"},
		{0, transport.Message{From: 0, To: 1, Payload: aba.Msg{Inst: 0, Round: 1, Phase: aba.PhaseBval, Value: 1}},
			"07000001010601000101"},
		{5, transport.Message{From: 2, To: 3, Payload: aba.Msg{Inst: 5, Round: 130, Phase: aba.PhaseAux, Value: 0}},
			"0705020301060205820100"},
		{0, transport.Message{From: 3, To: 0, Payload: aba.Msg{Inst: 2, Round: 0, Phase: aba.PhaseDone, Value: 1}},
			"07000300010603020001"},
		{7, transport.Message{From: 0, To: 1, Payload: wire.Open{Protocol: "acs"}},
			"07070001010703616373"},
		{300, transport.Message{From: 4, To: 6, Payload: iterative.ValPayload{Round: 2, Value: 0.5}},
			"07ac0204060104023fe0000000000000"},
	}
	for _, v := range vectors {
		kind := v.msg.Payload.Kind()
		want, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatalf("%s: bad vector hex: %v", kind, err)
		}
		if want[0] != wire.Version {
			t.Fatalf("%s: golden vector carries version %d, codec speaks %d — regenerate the table", kind, want[0], wire.Version)
		}
		got, err := wire.EncodeInstanceMessage(v.inst, v.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes changed\n got: %x\nwant: %x", kind, got, want)
		}
		inst, back, err := wire.DecodeInstanceMessage(want)
		if err != nil {
			t.Fatalf("%s: golden bytes no longer decode: %v", kind, err)
		}
		if inst != v.inst {
			t.Errorf("%s: golden bytes decode to instance %d, want %d", kind, inst, v.inst)
		}
		if !equalMessage(v.msg, back) {
			t.Errorf("%s: golden bytes decode to a different message: %#v", kind, back)
		}
		info, err := wire.PeekFrame(want)
		if err != nil {
			t.Fatalf("%s: peek: %v", kind, err)
		}
		_, isOpen := v.msg.Payload.(wire.Open)
		if info.Inst != v.inst || info.From != v.msg.From || info.To != v.msg.To || info.Open != isOpen {
			t.Errorf("%s: peek = %+v, want inst %d from %d to %d open %v",
				kind, info, v.inst, v.msg.From, v.msg.To, isOpen)
		}
	}
}

// TestGoldenFrameVector pins a frame of several messages: one header, the
// count, then each payload exactly as its one-message frame carries it.
func TestGoldenFrameVector(t *testing.T) {
	msgs := []transport.Message{
		{From: 3, To: 7, Payload: bw.ValPayload{Round: 12, Value: -1, Entry: math.MaxInt32}},
		{From: 3, To: 7, Payload: iterative.ValPayload{Round: 2, Value: 0.5}},
		{From: 3, To: 7, Payload: aba.Msg{Inst: 5, Round: 130, Phase: aba.PhaseAux, Value: 0}},
	}
	const want = "07" + "ac02" + "0307" + "03" +
		"010c" + "bff0000000000000" + "ffffffff07" +
		"04023fe0000000000000" +
		"0602058201" + "00"
	got, n, err := wire.AppendFrame(nil, 300, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) || hex.EncodeToString(got) != want {
		t.Fatalf("frame of %d messages = %x, want %d messages in %s", n, got, len(msgs), want)
	}
	inst, back, err := wire.DecodeFrame(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst != 300 || len(back) != len(msgs) {
		t.Fatalf("decoded instance %d and %d messages", inst, len(back))
	}
	for i := range msgs {
		if !equalMessage(msgs[i], back[i]) {
			t.Errorf("message %d decoded as %#v", i, back[i])
		}
	}
	info, err := wire.PeekFrame(got)
	if err != nil || info != (wire.FrameInfo{Inst: 300, From: 3, To: 7}) {
		t.Errorf("peek = %+v, %v", info, err)
	}
}

// TestAppendFrame pins the bundling encoder: a run of one link's messages
// round-trips in order at every count, including counts whose varint takes
// two bytes; a one-message frame is byte-identical to
// AppendInstanceMessage's; and it refuses a mixed link or a shared Open.
func TestAppendFrame(t *testing.T) {
	base := sampleMessages()
	for _, count := range []int{1, 2, 127, 128, 300} {
		msgs := make([]transport.Message, count)
		for i := range msgs {
			msgs[i] = base[i%13] // every non-Open sample
			msgs[i].From, msgs[i].To = 4, 9
		}
		prefix := []byte("keep")
		body, n, err := wire.AppendFrame(append([]byte(nil), prefix...), 77, msgs)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if n != count || !bytes.HasPrefix(body, prefix) {
			t.Fatalf("count %d: wrote %d messages, prefix kept %v", count, n, bytes.HasPrefix(body, prefix))
		}
		body = body[len(prefix):]
		inst, back, err := wire.DecodeFrame(body, nil)
		if err != nil {
			t.Fatalf("count %d: decode: %v", count, err)
		}
		if inst != 77 || len(back) != count {
			t.Fatalf("count %d: decoded instance %d and %d messages", count, inst, len(back))
		}
		for i := range msgs {
			if !equalMessage(msgs[i], back[i]) {
				t.Fatalf("count %d: message %d decoded as %#v", count, i, back[i])
			}
		}
		if count == 1 {
			single, err := wire.EncodeInstanceMessage(77, msgs[0])
			if err != nil || !bytes.Equal(single, body) {
				t.Fatalf("one-message frame %x, AppendInstanceMessage %x (%v)", body, single, err)
			}
		}
	}
	mixed := []transport.Message{base[0], base[1]}
	if _, _, err := wire.AppendFrame(nil, 0, mixed); err == nil {
		t.Error("encoded messages of two links into one frame")
	}
	open := transport.Message{From: 0, To: 1, Payload: wire.Open{Protocol: "acs"}}
	if _, _, err := wire.AppendFrame(nil, 0, []transport.Message{base[0], open}); err == nil {
		t.Error("encoded an Open into a shared frame")
	}
	if _, _, err := wire.AppendFrame(nil, 0, nil); err == nil {
		t.Error("encoded a frame of no message")
	}
}

// TestAppendFrameSplitsAtMaxFrame: a run of messages larger than MaxFrame
// leaves in several frames, each within the bound and together carrying
// the run in order.
func TestAppendFrameSplitsAtMaxFrame(t *testing.T) {
	entries := make([]bw.ValEntry, 1<<15)
	for i := range entries {
		entries[i] = bw.ValEntry{Entry: int32(i), Value: float64(i)}
	}
	var msgs []transport.Message
	for seq := 1; seq <= 50; seq++ {
		msgs = append(msgs, transport.Message{From: 1, To: 2, Payload: bw.CompletePayload{
			Round: 1, Origin: 1, Seq: seq, Entries: entries}})
	}
	var got []transport.Message
	frames := 0
	for rest := msgs; len(rest) > 0; frames++ {
		body, n, err := wire.AppendFrame(nil, 0, rest)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > wire.MaxFrame || n < 1 {
			t.Fatalf("frame %d: %d bytes carrying %d messages", frames, len(body), n)
		}
		if _, got, err = wire.DecodeFrame(body, got); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if frames < 2 || len(got) != len(msgs) {
		t.Fatalf("%d messages left in %d frames", len(got), frames)
	}
	for i := range msgs {
		if got[i].Payload.(bw.CompletePayload).Seq != i+1 {
			t.Fatalf("message %d out of order", i)
		}
	}
}

// TestInstanceRoundTrip pins the multiplexing header across the instance-id
// domain: the id survives encode/decode at every varint width.
func TestInstanceRoundTrip(t *testing.T) {
	for _, inst := range []uint64{0, 1, 127, 128, 16384, 1 << 32, math.MaxUint64} {
		for _, m := range sampleMessages() {
			body, err := wire.EncodeInstanceMessage(inst, m)
			if err != nil {
				t.Fatalf("inst %d: encode %v: %v", inst, m, err)
			}
			gotInst, got, err := wire.DecodeInstanceMessage(body)
			if err != nil {
				t.Fatalf("inst %d: decode: %v", inst, err)
			}
			if gotInst != inst || !equalMessage(m, got) {
				t.Fatalf("inst %d: round trip changed frame: inst %d msg %#v", inst, gotInst, got)
			}
		}
	}
}

func TestOpenPayload(t *testing.T) {
	body, err := wire.EncodeInstanceMessage(9, transport.Message{From: 2, To: 5, Payload: wire.Open{Protocol: "iterative"}})
	if err != nil {
		t.Fatal(err)
	}
	inst, m, err := wire.DecodeInstanceMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if inst != 9 {
		t.Fatalf("inst = %d", inst)
	}
	open, ok := m.Payload.(wire.Open)
	if !ok || open.Protocol != "iterative" {
		t.Fatalf("payload = %#v", m.Payload)
	}
	if _, err := wire.EncodeInstanceMessage(0, transport.Message{From: 0, To: 1, Payload: wire.Open{}}); err == nil {
		t.Fatal("want error for empty protocol name")
	}
	if _, err := wire.EncodeInstanceMessage(0, transport.Message{From: 0, To: 1,
		Payload: wire.Open{Protocol: strings.Repeat("x", 1<<13)}}); err == nil {
		t.Fatal("want error for oversized protocol name")
	}
}

func TestPeekFrameRejects(t *testing.T) {
	if _, err := wire.PeekFrame(nil); err == nil {
		t.Fatal("want error for empty frame")
	}
	if _, err := wire.PeekFrame([]byte{99, 0, 0, 1, 4}); err == nil {
		t.Fatal("want error for bad version")
	}
	if _, err := wire.PeekFrame([]byte{wire.Version, 0, 0}); err == nil {
		t.Fatal("want error for truncated header")
	}
}

// nonCanonicalReportFrames returns the golden r2/report frame (origins 0,
// 2) rewritten with its origins out of order (2, 0) and repeated (0, 0):
// one byte each, with the count, the values and every other field intact.
func nonCanonicalReportFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var frames [][]byte
	for _, h := range []string{
		"07000102010502000972322f7265706f72740202023ff000000000000000c004000000000000",
		"07000102010502000972322f7265706f72740202003ff000000000000000c004000000000000",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestDecodeRejectsNonCanonicalReport: a report is an origin-sorted list on
// the wire, and the decoder admits nothing else — an unsorted or repeated
// origin is a decode error, never a report with a shadowed entry.
func TestDecodeRejectsNonCanonicalReport(t *testing.T) {
	for _, frame := range nonCanonicalReportFrames(t) {
		if _, _, err := wire.DecodeInstanceMessage(frame); err == nil {
			t.Errorf("frame %x decoded", frame)
		}
	}
	unsorted := transport.Message{From: 1, To: 2, Payload: rbc.Msg{Phase: rbc.PhaseEcho, Origin: 0, Tag: "r2/report",
		Content: aad.Report{{Origin: 2, Value: 1}, {Origin: 0, Value: -2.5}}}}
	if _, err := wire.EncodeInstanceMessage(0, unsorted); err == nil {
		t.Error("unsorted report encoded")
	}
}

// TestWireDecodeReportAllocBudget pins the decode of an rbc frame carrying
// an 8-entry report: the tag string, the report's entries, and the two
// interface boxes (Report into Content, Msg into Payload) — no map, no
// per-entry allocation.
func TestWireDecodeReportAllocBudget(t *testing.T) {
	rep := make(aad.Report, 8)
	for i := range rep {
		rep[i] = aad.Entry{Origin: i, Value: float64(i) / 4}
	}
	frame, err := wire.EncodeInstanceMessage(0, transport.Message{From: 1, To: 2, Payload: rbc.Msg{
		Phase: rbc.PhaseReady, Origin: 3, Tag: "r2/report", Content: rep}})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(1000, func() {
		if _, _, err := wire.DecodeInstanceMessage(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got != 4 {
		t.Errorf("DecodeInstanceMessage of a report frame allocates %.2f per op, want 4", got)
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to the decoders. Whatever
// decodes must re-encode, and the re-encoded form must be canonical:
// decoding and encoding it again reproduces the same bytes (idempotence).
// The one-message decode accepts exactly the frames of one message, and
// the routing peek agrees with the full decode. The seed corpus is every
// sample message's real encoding and a few multi-message frames, so the
// fuzzer starts on the valid-format manifold instead of random headers.
func FuzzWireRoundTrip(f *testing.F) {
	for i, m := range sampleMessages() {
		// Seed across the instance-id widths so the fuzzer starts with
		// multi-byte multiplexing headers, not just instance 0.
		body, err := wire.EncodeInstanceMessage(uint64(i)*uint64(i)*200, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, frame := range nonCanonicalReportFrames(f) {
		f.Add(frame)
	}
	for _, h := range badEntryFrames {
		f.Add(mustHex(f, h))
	}
	// Multi-message frames: a run of every non-Open payload on one link, a
	// pair, and a run long enough for a two-byte count.
	for i, count := range []int{13, 2, 130} {
		msgs := make([]transport.Message, count)
		for j := range msgs {
			msgs[j] = sampleMessages()[j%13]
			msgs[j].From, msgs[j].To = 2, 3
		}
		body, _, err := wire.AppendFrame(nil, uint64(i)*1000, msgs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, msgs, err := wire.DecodeFrame(data, nil)
		_, single, singleErr := wire.DecodeInstanceMessage(data)
		if (singleErr == nil) != (err == nil && len(msgs) == 1) {
			t.Fatalf("one-message decode (%v) disagrees with the frame decode (%d messages, %v)", singleErr, len(msgs), err)
		}
		if err != nil {
			return // malformed input rejected: fine
		}
		if len(msgs) == 1 && !equalMessage(single, msgs[0]) {
			t.Fatalf("one-message decode %#v, frame decode %#v", single, msgs[0])
		}
		canon, n, err := wire.AppendFrame(nil, inst, msgs)
		if err != nil || n != len(msgs) {
			t.Fatalf("decoded frame fails to encode (%d of %d messages): %v\nmessages: %#v", n, len(msgs), err, msgs)
		}
		inst2, msgs2, err := wire.DecodeFrame(canon, nil)
		if err != nil {
			t.Fatalf("canonical form fails to decode: %v\nbytes: %x", err, canon)
		}
		if inst2 != inst {
			t.Fatalf("instance id changed across round trip: %d -> %d", inst, inst2)
		}
		canon2, _, err := wire.AppendFrame(nil, inst2, msgs2)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("encoding not canonical:\nfirst:  %x\nsecond: %x", canon, canon2)
		}
		// The routing peek must agree with the full decode on every frame
		// the decoder accepts.
		info, err := wire.PeekFrame(data)
		if err != nil {
			t.Fatalf("decodable frame fails to peek: %v\nbytes: %x", err, data)
		}
		_, isOpen := msgs[0].Payload.(wire.Open)
		m := msgs[0]
		if info.Inst != inst || info.From != m.From || info.To != m.To || info.Open != isOpen {
			t.Fatalf("peek disagrees with decode: %+v vs inst %d %#v", info, inst, m)
		}
	})
}

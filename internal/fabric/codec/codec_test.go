package codec_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/fabric/codec"
)

// samples is one representative value per peer message kind, with the
// awkward corners included: nil and non-nil optional winner, empty and
// multi-entry maps, negative values, every constraint op.
func samples() []any {
	return []any{
		&wire.PeerCollect{From: 1, Round: 7, Clock: 99, Units: []int{0, 2}, Objs: []string{"stock(0)", "stock(1)"}},
		&wire.PeerState{Clock: 100, Values: map[string]int64{"stock(0)": 5, "delta:1:stock(0)": -2}},
		&wire.PeerInstallState{From: 0, Round: 8, Clock: 101, Objs: []string{"a"},
			Folded: map[string]int64{"a": 42},
			Winner: &wire.PeerWinner{Class: "Order", Args: []int64{1, -2}, Site: 1, Units: []int{0}, Log: []int64{3}}},
		&wire.PeerInstallState{From: 2, Round: 9, Clock: 50},
		&wire.PeerInstallTreaties{From: 0, Round: 8, Clock: 102, Site: 1, Units: []wire.PeerUnitTreaty{{
			Unit: 0, Version: 3, Constraints: []wire.PeerConstraint{
				{Coeffs: map[string]int64{"stock(0)": 1}, Const: -10, Op: "<="},
				{Coeffs: map[string]int64{"x": 2, "y": -1}, Const: 0, Op: "<"},
				{Const: 5, Op: "=="},
			}}}},
		&wire.PeerAbort{From: 1, Round: 7, Clock: 103},
		&wire.PeerAck{Clock: 104},
		&wire.PeerRejoin{Site: 2, Clock: 105, Units: []wire.PeerUnitVersion{{Unit: 0, Version: 1}, {Unit: 1, Version: 2}}},
		&wire.PeerRejoinReply{Clock: 106, Units: []wire.PeerRejoinUnit{
			{Unit: 0, Version: 4, Force: true, Base: map[string]int64{"a": 1}},
			{Unit: 1, Version: 5},
		}},
	}
}

// fresh returns a zero value of m's concrete type, as a pointer.
func fresh(m any) any {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface()
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range samples() {
		enc, err := codec.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if enc[0] != codec.Magic {
			t.Fatalf("%T: encoding does not start with the codec magic", m)
		}
		out := fresh(m)
		if err := codec.DecodeMessage(enc, out); err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, out) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", m, out, m)
		}
	}
}

// TestEncodingDeterministic: the same value always encodes to the same
// bytes (maps are key-sorted), which negotiation tests and the WAL's CRC
// framing rely on.
func TestEncodingDeterministic(t *testing.T) {
	for _, m := range samples() {
		a, _ := codec.AppendMessage(nil, m)
		for i := 0; i < 8; i++ {
			b, _ := codec.AppendMessage(nil, m)
			if !bytes.Equal(a, b) {
				t.Fatalf("%T: encoding differs across runs", m)
			}
		}
	}
}

// TestDecodeWrongKind: a body posted to the wrong endpoint (kind/type
// mismatch) fails loudly instead of misparsing.
func TestDecodeWrongKind(t *testing.T) {
	enc, _ := codec.AppendMessage(nil, &wire.PeerCollect{From: 1})
	var st wire.PeerState
	if err := codec.DecodeMessage(enc, &st); err == nil {
		t.Fatal("collect body decoded as PeerState without error")
	}
}

// TestDecodeNotBinary: a body in any other encoding (JSON, say) is an
// ordinary decode error naming the bad magic byte, never a partial
// decode.
func TestDecodeNotBinary(t *testing.T) {
	var c wire.PeerCollect
	err := codec.DecodeMessage([]byte(`{"from":1}`), &c)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("JSON body: got %v, want a bad-magic decode error", err)
	}
	if !reflect.DeepEqual(c, wire.PeerCollect{}) {
		t.Fatalf("JSON body partially decoded into %+v", c)
	}
}

// TestDecodeCorruption is the codec's analogue of the WAL torn-tail
// corpus: every truncation of a valid message must fail cleanly, and
// every single-byte flip must decode without panicking or huge
// allocations (a flipped count must not become an allocation request).
func TestDecodeCorruption(t *testing.T) {
	for _, m := range samples() {
		enc, err := codec.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(enc); i++ {
			if err := codec.DecodeMessage(enc[:i], fresh(m)); err == nil {
				t.Errorf("%T: truncation to %d/%d bytes decoded cleanly", m, i, len(enc))
			}
		}
		for i := 0; i < len(enc); i++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0xFF
			// Must not panic; an error or a different value are both fine,
			// except that a flipped magic byte must always be refused.
			err := codec.DecodeMessage(mut, fresh(m))
			if i == 0 && err == nil {
				t.Errorf("%T: flipped magic byte decoded cleanly", m)
			}
		}
	}
}

// FuzzDecodeMessage drives arbitrary bytes through every decoder. The
// properties: no panic, and anything that decodes cleanly re-encodes to
// a message that decodes back to the same value (the codec is closed
// under its own round trip even for non-canonical varint input).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range samples() {
		enc, _ := codec.AppendMessage(nil, m)
		f.Add(enc)
	}
	f.Add([]byte(`{"from":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range samples() {
			v := fresh(m)
			if err := codec.DecodeMessage(data, v); err != nil {
				continue
			}
			enc, err := codec.AppendMessage(nil, v)
			if err != nil {
				t.Fatalf("%T: decoded value does not re-encode: %v", v, err)
			}
			again := fresh(m)
			if err := codec.DecodeMessage(enc, again); err != nil {
				t.Fatalf("%T: re-encoded value does not decode: %v", v, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%T: re-encode round trip mismatch:\n got %+v\nwant %+v", v, again, v)
			}
		}
	})
}

// BenchmarkPeerCodec measures one encode+decode of each negotiation
// message into a reused buffer — the transport's per-body codec cost.
func BenchmarkPeerCodec(b *testing.B) {
	msgs := samples()
	outs := make([]any, len(msgs))
	for i, m := range msgs {
		outs[i] = fresh(m)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := msgs[i%len(msgs)]
		var err error
		buf, err = codec.AppendMessage(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if err := codec.DecodeMessage(buf, outs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/homeo/wire"
)

func openT(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path, Options{GroupWindow: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs
}

// TestRoundTrip appends one record of each kind through a close/reopen
// cycle and checks they replay intact.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	l, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := appendRecord(l, rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Records(); n != int64(len(want)) {
		t.Fatalf("Records() = %d, want %d", n, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, path)
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		got, err := decodeRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d round trip:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	// Kind mismatch surfaces as an error, not a zero-valued decode.
	if _, err := recs[0].Install(); err == nil {
		t.Error("decoding a commit as an install succeeded")
	}
	// So does a payload whose header names another kind.
	if _, err := (Record{Kind: KindInstall, Payload: recs[0].Payload}).Install(); err == nil {
		t.Error("a commit payload decoded as an install record")
	}
	// An unknown constraint op is refused at append time.
	bad := TreatyRecord{Constraints: []wire.PeerConstraint{{Const: 1, Op: "!="}}}
	if err := l2.AppendTreaty(bad); err == nil {
		t.Error("treaty with an unknown op appended")
	}
	if n := l2.Records(); n != 0 {
		t.Errorf("refused treaty still appended %d records", n)
	}
}

// TestJSONPayloadRefused: a record whose payload is JSON — the encoding
// older builds wrote — is a decode error for every kind, never a zero
// value or a partial decode.
func TestJSONPayloadRefused(t *testing.T) {
	payload := []byte(`{"class":"Withdraw","site":1,"clock":3}`)
	for _, k := range []Kind{KindCommit, KindInstall, KindTreaty, KindMembership} {
		got, err := decodeRecord(Record{Kind: k, Payload: payload})
		if err == nil {
			t.Errorf("%v: JSON payload decoded to %+v", k, got)
		} else if !strings.Contains(err.Error(), "magic") {
			t.Errorf("%v: error %q does not name the bad magic byte", k, err)
		}
	}
}

// sampleRecords is one record of each kind, awkward corners included: a
// nil and a set round, negative values, a treaty with several
// constraints covering every op.
func sampleRecords() []any {
	return []any{
		CommitRecord{
			Class: "Withdraw", Args: []int64{7, -3}, Site: 1, Units: []int{0, 2},
			Log: []int64{42}, Clock: 9,
			Round:  &RoundID{Site: 1, Seq: 4},
			Writes: map[string]int64{"d0_x": -3, "d0_y": 12},
		},
		InstallRecord{
			Round: RoundID{Site: 2, Seq: 1}, Clock: 11, Sites: 3,
			Objs: []string{"x"}, Base: map[string]int64{"x": 100},
			Drift: map[string]int64{"d1_x": 5},
		},
		TreatyRecord{Unit: 3, Site: 1, Version: 2, Clock: 12, Round: &RoundID{Site: 0, Seq: 9},
			Constraints: []wire.PeerConstraint{
				{Coeffs: map[string]int64{"x": 1}, Const: -1, Op: "<="},
				{Coeffs: map[string]int64{"x": 2, "y": -1}, Const: 0, Op: "<"},
				{Const: 5, Op: "=="},
			}},
		TreatyRecord{Unit: 0, Site: 0, Version: 1, Clock: 13},
		MembershipRecord{Epoch: 2, Width: 3, Status: []int{0, 1, 0},
			Addrs: []string{"http://a", "", "http://c"}, Clock: 14},
	}
}

// appendRecord appends a typed record through its Append method.
func appendRecord(l *Log, rec any) error {
	switch rec := rec.(type) {
	case CommitRecord:
		return l.AppendCommit(rec)
	case InstallRecord:
		return l.AppendInstall(rec)
	case TreatyRecord:
		return l.AppendTreaty(rec)
	case MembershipRecord:
		return l.AppendMembership(rec)
	}
	panic(fmt.Sprintf("appendRecord: %T", rec))
}

// encodeRecord returns a typed record's payload, as its Append method
// frames it.
func encodeRecord(rec any) (Kind, []byte, error) {
	switch rec := rec.(type) {
	case CommitRecord:
		return KindCommit, appendCommitPayload(nil, &rec), nil
	case InstallRecord:
		return KindInstall, appendInstallPayload(nil, &rec), nil
	case TreatyRecord:
		b, err := appendTreatyPayload(nil, &rec)
		return KindTreaty, b, err
	case MembershipRecord:
		return KindMembership, appendMembershipPayload(nil, &rec), nil
	}
	panic(fmt.Sprintf("encodeRecord: %T", rec))
}

// decodeRecord decodes r with the typed decoder its kind names.
func decodeRecord(r Record) (any, error) {
	switch r.Kind {
	case KindCommit:
		return r.Commit()
	case KindInstall:
		return r.Install()
	case KindTreaty:
		return r.Treaty()
	case KindMembership:
		return r.Membership()
	}
	return nil, fmt.Errorf("unknown kind %v", r.Kind)
}

// TestTornTail builds a valid log and then corrupts its tail every way a
// crash can: truncation mid-frame, a flipped payload byte, a flipped
// length, appended garbage. Replay must stop cleanly at the last valid
// record, and Open must repair the file so subsequent appends extend the
// valid prefix.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	l, _ := openT(t, base)
	for i := 0; i < 5; i++ {
		if err := l.AppendCommit(CommitRecord{Class: "C", Clock: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := Scan(data)
	if len(recs) != 5 || valid != len(data) {
		t.Fatalf("clean scan: %d records, %d/%d bytes", len(recs), valid, len(data))
	}
	// Frame boundaries, for surgical corruption: bounds[i] is the byte
	// offset just past record i's frame.
	var bounds []int
	off := 0
	for off < len(data) {
		length := int(binary.BigEndian.Uint32(data[off:]))
		off += headerSize + length
		bounds = append(bounds, off)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    int // records surviving replay
	}{
		{"TruncateMidPayload", func(b []byte) []byte { return b[:bounds[3]+headerSize+2] }, 4},
		{"TruncateMidHeader", func(b []byte) []byte { return b[:bounds[2]+3] }, 3},
		{"FlipPayloadByte", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[bounds[1]+headerSize+1] ^= 0xff
			return b
		}, 2},
		{"FlipLength", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[bounds[0]] = 0xff // length prefix now impossible
			return b
		}, 1},
		{"AppendGarbage", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0, 0, 0, 9, 1, 2, 3, 4)
		}, 5},
		{"Empty", func(b []byte) []byte { return nil }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupted := tc.corrupt(data)
			recs, _ := Scan(corrupted)
			if len(recs) != tc.want {
				t.Fatalf("replay survived %d records, want %d", len(recs), tc.want)
			}
			for i, r := range recs {
				c, err := r.Commit()
				if err != nil || c.Clock != int64(i) {
					t.Fatalf("record %d decoded to %+v (%v)", i, c, err)
				}
			}
			// Open must truncate to the valid prefix and take appends.
			path := filepath.Join(dir, tc.name+".wal")
			if err := os.WriteFile(path, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			l, replayed := openT(t, path)
			if len(replayed) != tc.want {
				t.Fatalf("Open replayed %d records, want %d", len(replayed), tc.want)
			}
			if err := l.AppendCommit(CommitRecord{Class: "after", Clock: 99}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs2, valid2 := Scan(after)
			if len(recs2) != tc.want+1 || valid2 != len(after) {
				t.Fatalf("after repair+append: %d records, %d/%d bytes valid", len(recs2), valid2, len(after))
			}
			if c, _ := recs2[len(recs2)-1].Commit(); c.Class != "after" {
				t.Fatalf("appended record = %+v", c)
			}
		})
	}
}

// TestGroupCommitFlush checks that batched appends reach the file only on
// flush, and that Flush makes them durable without closing.
func TestGroupCommitFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _, err := Open(path, Options{GroupWindow: time.Hour}) // never auto-fires
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendCommit(CommitRecord{Class: "A"}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if len(data) != 0 {
		t.Fatalf("batch hit the file before flush (%d bytes)", len(data))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	recs, _ := Scan(data)
	if len(recs) != 1 {
		t.Fatalf("after flush: %d records", len(recs))
	}
}

// FuzzScan throws arbitrary bytes at the replay path: it must never
// panic, must report a valid prefix no longer than the input, and
// re-encoding the surviving records must reproduce that prefix exactly.
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 1, 2})
	valid := appendFrame(nil, KindCommit, appendCommitPayload(nil, &CommitRecord{Class: "x"}))
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), 0xff, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := Scan(data)
		if valid > len(data) {
			t.Fatalf("valid prefix %d exceeds input %d", valid, len(data))
		}
		var re []byte
		for _, r := range recs {
			re = appendFrame(re, r.Kind, r.Payload)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encoding %d records diverges from the valid prefix", len(recs))
		}
	})
}

// FuzzRecordRoundTrip appends an arbitrary payload and replays it back.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(byte(1), appendCommitPayload(nil, &CommitRecord{Class: "Withdraw", Clock: 3}))
	f.Add(byte(3), []byte{})
	f.Add(byte(200), []byte{0xff, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		l, _, err := Open(path, Options{GroupWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(Kind(kind), payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Kind != Kind(kind) || !bytes.Equal(recs[0].Payload, payload) {
			t.Fatalf("round trip: got %d records, first %+v", len(recs), recs)
		}
	})
}

// FuzzRecordDecode feeds arbitrary payloads through all four typed
// decoders. None may panic, and every payload that decodes cleanly must
// re-encode to a payload that decodes back to an equal value.
func FuzzRecordDecode(f *testing.F) {
	for _, rec := range sampleRecords() {
		_, b, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"class":"Withdraw","clock":3}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, k := range []Kind{KindCommit, KindInstall, KindTreaty, KindMembership} {
			v, err := decodeRecord(Record{Kind: k, Payload: payload})
			if err != nil {
				continue
			}
			k2, b, err := encodeRecord(v)
			if err != nil {
				t.Fatalf("%v: decoded value does not re-encode: %v", k, err)
			}
			again, err := decodeRecord(Record{Kind: k2, Payload: b})
			if err != nil {
				t.Fatalf("%v: re-encoded payload does not decode: %v", k, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%v: re-encode round trip mismatch:\n got %+v\nwant %+v", k, again, v)
			}
		}
	})
}

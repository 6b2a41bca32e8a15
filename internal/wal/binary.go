package wal

import (
	"fmt"
	"sync"

	"repro/internal/fabric/codec"
)

// This file is the payload encoding of WAL records: the fabric codec
// (varints, length-prefixed strings, sorted maps) behind the codec's
// three-byte header, whose kind byte repeats the record's kind. It is
// the only payload encoding; a payload that does not start with the
// codec header, or whose header names another kind, fails to decode.
// The frame layer around it — length, CRC, torn-tail repair — lives in
// wal.go.

// payloadScratch pools the encode buffer so the append path does not
// allocate a payload per record.
var payloadScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func (l *Log) appendBinary(kind Kind, enc func([]byte) ([]byte, error)) error {
	bp := payloadScratch.Get().(*[]byte)
	defer payloadScratch.Put(bp)
	payload, err := enc((*bp)[:0])
	if err != nil {
		return err
	}
	*bp = payload[:0]
	return l.Append(kind, payload)
}

// reader checks the record's kind and consumes the payload header,
// returning a reader positioned at the first field.
func (r Record) reader(want Kind) (*codec.Reader, error) {
	if r.Kind != want {
		return nil, fmt.Errorf("wal: %v record decoded as %v", r.Kind, want)
	}
	rd := codec.NewReader(r.Payload)
	k := rd.Header()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("wal: %v record: %w", want, err)
	}
	if k != byte(want) {
		return nil, fmt.Errorf("wal: %v record carries a %v payload", want, Kind(k))
	}
	return rd, nil
}

func appendRound(dst []byte, r *RoundID) []byte {
	if r == nil {
		return codec.AppendBool(dst, false)
	}
	dst = codec.AppendBool(dst, true)
	dst = codec.AppendInt(dst, r.Site)
	return codec.AppendUvarint(dst, r.Seq)
}

func decodeRound(r *codec.Reader) *RoundID {
	if !r.Bool() {
		return nil
	}
	return &RoundID{Site: r.Int(), Seq: r.Uvarint()}
}

func appendCommitPayload(dst []byte, c *CommitRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindCommit))
	dst = codec.AppendString(dst, c.Class)
	dst = codec.AppendInt64s(dst, c.Args)
	dst = codec.AppendInt(dst, c.Site)
	dst = codec.AppendInts(dst, c.Units)
	dst = codec.AppendInt64s(dst, c.Log)
	dst = codec.AppendVarint(dst, c.Clock)
	dst = appendRound(dst, c.Round)
	return codec.AppendStringMap(dst, c.Writes)
}

// Commit decodes a KindCommit record.
func (r Record) Commit() (CommitRecord, error) {
	rd, err := r.reader(KindCommit)
	if err != nil {
		return CommitRecord{}, err
	}
	c := CommitRecord{
		Class: rd.String(),
		Args:  rd.Int64s(),
		Site:  rd.Int(),
		Units: rd.Ints(),
		Log:   rd.Int64s(),
		Clock: rd.Varint(),
		Round: decodeRound(rd),
	}
	c.Writes = rd.StringMap()
	return c, rd.Close()
}

func appendInstallPayload(dst []byte, c *InstallRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindInstall))
	dst = codec.AppendInt(dst, c.Round.Site)
	dst = codec.AppendUvarint(dst, c.Round.Seq)
	dst = codec.AppendVarint(dst, c.Clock)
	dst = codec.AppendStrings(dst, c.Objs)
	dst = codec.AppendStringMap(dst, c.Base)
	dst = codec.AppendStringMap(dst, c.Drift)
	return codec.AppendInt(dst, c.Sites)
}

// Install decodes a KindInstall record.
func (r Record) Install() (InstallRecord, error) {
	rd, err := r.reader(KindInstall)
	if err != nil {
		return InstallRecord{}, err
	}
	c := InstallRecord{
		Round: RoundID{Site: rd.Int(), Seq: rd.Uvarint()},
		Clock: rd.Varint(),
		Objs:  rd.Strings(),
		Base:  rd.StringMap(),
		Drift: rd.StringMap(),
		Sites: rd.Int(),
	}
	return c, rd.Close()
}

func appendTreatyPayload(dst []byte, c *TreatyRecord) ([]byte, error) {
	dst = codec.AppendHeader(dst, byte(KindTreaty))
	dst = codec.AppendInt(dst, c.Unit)
	dst = codec.AppendInt(dst, c.Site)
	dst = codec.AppendVarint(dst, c.Version)
	dst = codec.AppendVarint(dst, c.Clock)
	dst = appendRound(dst, c.Round)
	return codec.AppendConstraints(dst, c.Constraints)
}

// Treaty decodes a KindTreaty record.
func (r Record) Treaty() (TreatyRecord, error) {
	rd, err := r.reader(KindTreaty)
	if err != nil {
		return TreatyRecord{}, err
	}
	c := TreatyRecord{
		Unit:    rd.Int(),
		Site:    rd.Int(),
		Version: rd.Varint(),
		Clock:   rd.Varint(),
		Round:   decodeRound(rd),
	}
	c.Constraints = rd.Constraints()
	return c, rd.Close()
}

func appendMembershipPayload(dst []byte, c *MembershipRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindMembership))
	dst = codec.AppendVarint(dst, c.Epoch)
	dst = codec.AppendInt(dst, c.Width)
	dst = codec.AppendInts(dst, c.Status)
	dst = codec.AppendStrings(dst, c.Addrs)
	return codec.AppendVarint(dst, c.Clock)
}

// Membership decodes a KindMembership record.
func (r Record) Membership() (MembershipRecord, error) {
	rd, err := r.reader(KindMembership)
	if err != nil {
		return MembershipRecord{}, err
	}
	c := MembershipRecord{
		Epoch:  rd.Varint(),
		Width:  rd.Int(),
		Status: rd.Ints(),
		Addrs:  rd.Strings(),
		Clock:  rd.Varint(),
	}
	return c, rd.Close()
}

// WAL record codec for the durable schema registry. internal/server's
// write-ahead log and snapshot files are streams of these records; the
// codec lives here beside the binary frame codec so every byte format the
// system persists or ships has exactly one definition.
//
// Record layout (the framing of record.go):
//
//	u32le payloadLen | payload | u32le crc32(payload, IEEE)
//
//	payload = kind:byte tenant:string name:string version:uvarint
//	          fingerprint:u64le sampleEvery:uvarint text:string
//
// (strings and uvarints as in the dfbin frame grammar). A record whose declared extent runs past the available bytes is "torn"
// (ErrWALTorn — the tail of a log cut short by a crash mid-write, safe to
// truncate); any complete record that fails the CRC or does not parse is
// "corrupt" (ErrWALCorrupt — bit rot or a bug, never safe to ignore).
package api

import (
	"errors"
	"fmt"
)

// WAL record kinds.
const (
	// WALKindSchema records an accepted live schema registration.
	WALKindSchema byte = 1
	// WALKindShadow records an accepted shadow-candidate registration.
	WALKindShadow byte = 2
)

// MaxWALRecord bounds a single WAL record's total encoded size; a length
// prefix beyond it is corrupt, not a request for 4 GiB of memory.
const MaxWALRecord = 16 << 20

// ErrWALTorn marks a record cut short by a crash mid-append: the bytes end
// before the record's declared extent. A torn FINAL record is expected
// after a crash and is safe to truncate away.
var ErrWALTorn = errors.New("api: torn WAL record")

// ErrWALCorrupt marks a structurally complete record that fails its CRC or
// does not decode. Unlike a torn tail this is never expected and recovery
// must refuse rather than guess.
var ErrWALCorrupt = errors.New("api: corrupt WAL record")

// WALRecord is one durable registry event: an accepted schema (or shadow
// candidate) registration.
type WALRecord struct {
	// Kind is WALKindSchema or WALKindShadow.
	Kind byte
	// Tenant is the owning tenant; Name the schema's declared name.
	Tenant string
	Name   string
	// Version is the per-name monotone version assigned at registration.
	Version uint64
	// Fingerprint is the schema's deterministic text-format hash
	// (core.Schema.Fingerprint) at registration time; recovery re-parses
	// Text and refuses on mismatch.
	Fingerprint uint64
	// SampleEvery is the shadow sampling stride (every Nth live eval);
	// zero for live registrations.
	SampleEvery uint64
	// Text is the schema source in core.ParseSchema's text format.
	Text string
}

// AppendWALRecord appends the encoding of r to dst.
func AppendWALRecord(dst []byte, r WALRecord) []byte {
	return appendFramed(dst, func(dst []byte) []byte {
		dst = append(dst, r.Kind)
		dst = AppendString(dst, r.Tenant)
		dst = AppendString(dst, r.Name)
		dst = AppendUvarint(dst, r.Version)
		dst = le64(dst, r.Fingerprint)
		dst = AppendUvarint(dst, r.SampleEvery)
		return AppendString(dst, r.Text)
	})
}

// DecodeWALRecord decodes the first record in b, returning it and the
// number of bytes consumed. Errors wrap ErrWALTorn when b ends before the
// record's declared extent and ErrWALCorrupt for everything else.
func DecodeWALRecord(b []byte) (WALRecord, int, error) {
	var r WALRecord
	payload, total, err := splitFramed(b, MaxWALRecord, ErrWALTorn, ErrWALCorrupt)
	if err != nil {
		return r, 0, err
	}
	c := NewCursor(payload)
	r.Kind = c.Byte()
	r.Tenant = c.String()
	r.Name = c.String()
	r.Version = c.Uvarint()
	r.Fingerprint = c.U64()
	r.SampleEvery = c.Uvarint()
	r.Text = c.String()
	if err := c.Done(); err != nil {
		return WALRecord{}, 0, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	if r.Kind != WALKindSchema && r.Kind != WALKindShadow {
		return WALRecord{}, 0, fmt.Errorf("%w: unknown record kind %#x", ErrWALCorrupt, r.Kind)
	}
	return r, total, nil
}

func le64(dst []byte, x uint64) []byte {
	return append(dst, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

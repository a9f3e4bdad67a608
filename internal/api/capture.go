// Capture record codec for request capture and deterministic replay.
// internal/capture's trace files are streams of these records; the codec
// lives here beside the WAL and dfbin codecs so every byte format the
// system persists or ships has exactly one definition.
//
// Record layout (the framing of record.go, shared with the WAL codec):
//
//	u32le payloadLen | payload | u32le crc32(payload, IEEE)
//
//	payload = ver:byte monoNs:uvarint wallNs:u64le tenant:string
//	          schema:string version:uvarint fingerprint:u64le
//	          strategy:string nsrc:uvarint { name:string value }*nsrc
//	          digest:u64le
//
// (strings, uvarints and values as in the dfbin frame grammar). Sources
// are name-keyed, not attribute-id-keyed, so a capture is self-contained:
// replay does not need the bind table of the connection that recorded it,
// and the same capture replays against any schema version that still
// names those sources. A record
// whose declared extent runs past the available bytes is "torn"
// (ErrCaptureTorn — the tail of a capture file cut short by a crash or an
// abandoned write, safe to stop at); any complete record that fails the
// CRC or does not parse is "corrupt" (ErrCaptureCorrupt).
package api

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

// CaptureMagic opens every capture file; a reader seeing anything else
// refuses the file outright rather than guessing at a frame boundary.
const CaptureMagic = "DFCAP1\n"

// CaptureV1 is the capture record format version this build writes.
const CaptureV1 byte = 1

// MaxCaptureRecord bounds a single capture record's total encoded size; a
// length prefix beyond it is corrupt, not a request for 4 GiB of memory.
const MaxCaptureRecord = 16 << 20

// ErrCaptureTorn marks a record cut short: the bytes end before the
// record's declared extent. A torn tail is expected after a crash or a
// faulted append (the capture writer abandons partially written files)
// and is safe to stop at.
var ErrCaptureTorn = errors.New("api: torn capture record")

// ErrCaptureCorrupt marks a structurally complete record that fails its
// CRC or does not decode.
var ErrCaptureCorrupt = errors.New("api: corrupt capture record")

// CaptureSource is one named source binding of a captured eval.
type CaptureSource struct {
	Name string
	Val  value.Value
}

// CaptureRecord is one admitted eval as the capture writer logged it:
// enough to re-issue the instance (tenant, schema identity, strategy,
// dense source vector), when it happened (paired clocks), and what was
// decided (the digest live replay compares against).
type CaptureRecord struct {
	// MonoNs is the capture clock: nanoseconds since the capturing
	// server's start, monotonic within one capture. Replay paces arrivals
	// from deltas of this clock.
	MonoNs uint64
	// WallNs is the completion wall-clock time in Unix nanoseconds — for
	// humans correlating a capture with logs, never for pacing.
	WallNs uint64
	// Tenant is the admitted tenant; replay re-issues under the same one.
	Tenant string
	// Schema / Version / Fingerprint identify the registry entry the eval
	// ran against. Virtual replay verifies Fingerprint before trusting a
	// digest comparison.
	Schema      string
	Version     uint64
	Fingerprint uint64
	// Strategy is the strategy code the eval ran under (engine.Strategy
	// String form).
	Strategy string
	// Sources is the instance's dense source vector, name-keyed.
	Sources []CaptureSource
	// Digest is the decision digest of the recorded outcome (see
	// capture.Digest): target values in name order plus the instance
	// error, canonicalized so either wire recomputes it bit-identically.
	Digest uint64
}

// AppendCaptureRecord appends the encoding of r to dst.
func AppendCaptureRecord(dst []byte, r *CaptureRecord) []byte {
	return appendFramed(dst, func(dst []byte) []byte {
		dst = append(dst, CaptureV1)
		dst = AppendUvarint(dst, r.MonoNs)
		dst = le64(dst, r.WallNs)
		dst = AppendString(dst, r.Tenant)
		dst = AppendString(dst, r.Schema)
		dst = AppendUvarint(dst, r.Version)
		dst = le64(dst, r.Fingerprint)
		dst = AppendString(dst, r.Strategy)
		dst = AppendUvarint(dst, uint64(len(r.Sources)))
		for _, src := range r.Sources {
			dst = AppendString(dst, src.Name)
			dst = AppendValue(dst, src.Val)
		}
		return le64(dst, r.Digest)
	})
}

// DecodeCaptureRecord decodes the first record in b, returning it and the
// number of bytes consumed. Errors wrap ErrCaptureTorn when b ends before
// the record's declared extent and ErrCaptureCorrupt for everything else.
func DecodeCaptureRecord(b []byte) (CaptureRecord, int, error) {
	var r CaptureRecord
	payload, total, err := splitFramed(b, MaxCaptureRecord, ErrCaptureTorn, ErrCaptureCorrupt)
	if err != nil {
		return r, 0, err
	}
	c := NewCursor(payload)
	if ver := c.Byte(); c.Err() == nil && ver != CaptureV1 {
		return r, 0, fmt.Errorf("%w: unknown capture record version %d", ErrCaptureCorrupt, ver)
	}
	r.MonoNs = c.Uvarint()
	r.WallNs = c.U64()
	r.Tenant = c.String()
	r.Schema = c.String()
	r.Version = c.Uvarint()
	r.Fingerprint = c.U64()
	r.Strategy = c.String()
	nsrc := c.Uvarint()
	// Every source costs at least 2 bytes (empty name + value tag), so a
	// count beyond the remaining payload is corrupt — reject before
	// allocating.
	if c.Err() != nil || nsrc > uint64(len(c.Rest())) {
		return CaptureRecord{}, 0, fmt.Errorf("%w: truncated source vector", ErrCaptureCorrupt)
	}
	if nsrc > 0 {
		r.Sources = make([]CaptureSource, nsrc)
		for i := range r.Sources {
			r.Sources[i].Name = c.String()
			r.Sources[i].Val = c.Value()
			if c.Err() != nil {
				return CaptureRecord{}, 0, fmt.Errorf("%w: source %d: %v", ErrCaptureCorrupt, i, c.Err())
			}
		}
	}
	r.Digest = c.U64()
	if err := c.Done(); err != nil {
		return CaptureRecord{}, 0, fmt.Errorf("%w: %v", ErrCaptureCorrupt, err)
	}
	return r, total, nil
}

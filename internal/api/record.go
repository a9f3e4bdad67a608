package api

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing shared by the WAL and capture codecs:
//
//	u32le payloadLen | payload | u32le crc32(payload, IEEE)
//
// The CRC covers the payload only; the length prefix is validated
// structurally.

// appendFramed appends one record whose payload is what enc appends.
func appendFramed(dst []byte, enc func([]byte) []byte) []byte {
	start := len(dst)
	dst = enc(append(dst, 0, 0, 0, 0)) // length prefix, patched below
	payload := dst[start+4:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// splitFramed checks the framing of the first record in b and returns its
// payload and total size. Errors wrap torn when b ends before the record's
// declared extent, and corrupt for a length beyond maxSize or a bad CRC.
func splitFramed(b []byte, maxSize int, torn, corrupt error) (payload []byte, total int, err error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("%w: %d bytes of length prefix", torn, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 1 || n+8 > maxSize {
		return nil, 0, fmt.Errorf("%w: implausible record length %d", corrupt, n)
	}
	total = 4 + n + 4
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: %d of %d bytes", torn, len(b), total)
	}
	payload = b[4 : 4+n]
	sum := binary.LittleEndian.Uint32(b[4+n:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", corrupt, sum, got)
	}
	return payload, total, nil
}

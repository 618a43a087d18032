package service

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Plan artifacts are the disk store's on-disk unit (DESIGN.md §14): one
// canonical plan key and its sealed Result, framed so a reader can always
// tell a complete, untampered artifact from a torn or corrupt one.
//
// Layout (all integers big-endian):
//
//	magic    [8]byte  "LANCETPL"
//	version  uint32   artifactVersion
//	keyLen   uint32   followed by keyLen bytes of canonical plan key
//	payload  uint32   followed by payloadLen bytes of JSON payload
//	checksum uint32   CRC-32 (IEEE) over everything above
//
// The payload is the result's sealed encoding, Result.encoded: exactly
// json.MarshalIndent(r, "  ", "  "), the bytes the result occupies one
// level deep in an indented response. A disk hit serves it as it is read.
// Version 1 stored json.Marshal(r) instead; any change to the payload's
// bytes, including a change to Result's JSON encoding, bumps the version.
//
// The encoding is canonical — no padding, no slack — and decodeArtifact
// rejects trailing bytes, so every accepted artifact re-encodes to exactly
// the bytes it was decoded from (the round-trip FuzzStoreDecode pins).
// Other versions, older or newer, are rejected outright: their artifacts
// are counted corrupt, recomputed and overwritten, never half-read.
const (
	artifactMagic   = "LANCETPL"
	artifactVersion = 2

	// artifactMaxBytes caps the lengths a decoder trusts before
	// allocating; real artifacts are a few KB of JSON.
	artifactMaxBytes = 16 << 20
)

// encodeArtifact frames one plan key and payload as a store artifact.
func encodeArtifact(key string, payload []byte) []byte {
	n := len(artifactMagic) + 4 + 4 + len(key) + 4 + len(payload) + 4
	b := make([]byte, 0, n)
	b = append(b, artifactMagic...)
	b = binary.BigEndian.AppendUint32(b, artifactVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeArtifact parses and verifies a store artifact. It never panics on
// arbitrary input: every length is bounds-checked before use, the checksum
// must match, and trailing bytes are an error. The returned payload
// aliases b.
func decodeArtifact(b []byte) (key string, payload []byte, err error) {
	off := 0
	if len(b) < len(artifactMagic)+4 {
		return "", nil, fmt.Errorf("artifact truncated: %d bytes", len(b))
	}
	if string(b[:len(artifactMagic)]) != artifactMagic {
		return "", nil, fmt.Errorf("artifact has bad magic %q", b[:len(artifactMagic)])
	}
	off = len(artifactMagic)
	if v := binary.BigEndian.Uint32(b[off:]); v != artifactVersion {
		return "", nil, fmt.Errorf("artifact version %d, want %d", v, artifactVersion)
	}
	off += 4
	readBytes := func(what string) ([]byte, error) {
		if len(b)-off < 4 {
			return nil, fmt.Errorf("artifact truncated before %s length", what)
		}
		n := binary.BigEndian.Uint32(b[off:])
		off += 4
		if n > artifactMaxBytes || int(n) > len(b)-off {
			return nil, fmt.Errorf("artifact %s length %d exceeds remaining %d bytes", what, n, len(b)-off)
		}
		v := b[off : off+int(n)]
		off += int(n)
		return v, nil
	}
	k, err := readBytes("key")
	if err != nil {
		return "", nil, err
	}
	payload, err = readBytes("payload")
	if err != nil {
		return "", nil, err
	}
	switch {
	case len(b)-off < 4:
		return "", nil, fmt.Errorf("artifact truncated before checksum")
	case len(b)-off > 4:
		return "", nil, fmt.Errorf("artifact has %d trailing bytes", len(b)-off-4)
	}
	if sum := crc32.ChecksumIEEE(b[:off]); sum != binary.BigEndian.Uint32(b[off:]) {
		return "", nil, fmt.Errorf("artifact checksum mismatch")
	}
	return string(k), payload, nil
}

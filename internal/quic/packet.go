package quic

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/tlsmini"
)

// Supported wire versions. The drafts are feature equivalent to v1 in
// this implementation, exactly as the paper observes ("we find no
// differences between the QUIC versions").
const (
	Version1       uint32 = 0x00000001
	VersionDraft34 uint32 = 0xff000022
	VersionDraft32 uint32 = 0xff000020
	VersionDraft29 uint32 = 0xff00001d
)

// AllVersions lists every wire version this implementation supports, in
// client preference order (v1 first, then drafts newest-first), matching
// the paper's tooling which "supports all available DoQ versions".
func AllVersions() []uint32 {
	return []uint32{Version1, VersionDraft34, VersionDraft32, VersionDraft29}
}

// VersionName renders a version for reports.
func VersionName(v uint32) string {
	switch v {
	case Version1:
		return "v1"
	case VersionDraft34:
		return "draft-34"
	case VersionDraft32:
		return "draft-32"
	case VersionDraft29:
		return "draft-29"
	}
	return fmt.Sprintf("0x%08x", v)
}

// Packet types.
type packetType uint8

const (
	ptInitial packetType = iota
	ptZeroRTT
	ptHandshake
	ptOneRTT
	ptVersionNego
)

func (t packetType) String() string {
	switch t {
	case ptInitial:
		return "Initial"
	case ptZeroRTT:
		return "0-RTT"
	case ptHandshake:
		return "Handshake"
	case ptOneRTT:
		return "1-RTT"
	case ptVersionNego:
		return "VersionNegotiation"
	}
	return "?"
}

const (
	cidLen = 8
	// MinInitialDatagram is the RFC 9000 minimum size of datagrams
	// carrying Initial packets.
	MinInitialDatagram = 1200
	// maxDatagram caps all QUIC datagrams (we do not probe for larger
	// MTUs).
	maxDatagram = 1200
	pnLen       = 4 // fixed-length packet numbers
)

// packet is a parsed QUIC packet.
type packet struct {
	ptype   packetType
	version uint32
	dcid    []byte
	scid    []byte
	token   []byte // Initial only
	pn      uint64

	versions []uint32 // Version Negotiation only
}

// retained returns a copy of p whose connection ID and token fields no
// longer alias the datagram buffer, for packets buffered past the
// datagram's pooled lifetime.
func (p packet) retained() packet {
	p.dcid = append([]byte(nil), p.dcid...)
	p.scid = append([]byte(nil), p.scid...)
	p.token = append([]byte(nil), p.token...)
	return p
}

// appendHeader appends the unprotected header bytes for a packet about
// to be sealed; the caller appends the sealed payload after it.
func appendHeader(b []byte, t packetType, version uint32, dcid, scid, token []byte, pn uint64, payloadLen int) []byte {
	if t == ptOneRTT {
		b = append(b, 0x40)
		b = append(b, dcid...)
		b = binary.BigEndian.AppendUint32(b, uint32(pn))
		return b
	}
	b = append(b, 0x80|byte(t)<<4|(pnLen-1))
	b = binary.BigEndian.AppendUint32(b, version)
	b = append(b, byte(len(dcid)))
	b = append(b, dcid...)
	b = append(b, byte(len(scid)))
	b = append(b, scid...)
	if t == ptInitial {
		b = appendVarint(b, uint64(len(token)))
		b = append(b, token...)
	}
	// Length covers packet number + sealed payload.
	b = appendVarint(b, uint64(pnLen+payloadLen))
	b = binary.BigEndian.AppendUint32(b, uint32(pn))
	return b
}

// encodeVersionNegotiation builds a Version Negotiation packet.
func encodeVersionNegotiation(dcid, scid []byte, versions []uint32) []byte {
	b := []byte{0x80}
	b = binary.BigEndian.AppendUint32(b, 0)
	b = append(b, byte(len(dcid)))
	b = append(b, dcid...)
	b = append(b, byte(len(scid)))
	b = append(b, scid...)
	for _, v := range versions {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

var errPacket = errors.New("quic: malformed packet")

// parseHeader parses one packet header from the front of a datagram. It
// returns the header fields, the offset where the protected payload
// starts, the total length of this packet within the datagram, and the
// header bytes (AAD).
//
// The returned connection IDs, token, and AAD alias b — the datagram
// buffer, which is released back to the pool after processing. Callers
// that retain any of them past the datagram's lifetime must copy
// (packet.retained for the ID fields).
func parseHeader(b []byte) (p packet, payloadOff, total int, aad []byte, err error) {
	if len(b) < 1 {
		return p, 0, 0, nil, errPacket
	}
	first := b[0]
	if first&0x80 == 0 {
		// Short header: 1-RTT, consumes the rest of the datagram.
		if len(b) < 1+cidLen+pnLen {
			return p, 0, 0, nil, errPacket
		}
		p.ptype = ptOneRTT
		p.dcid = b[1 : 1+cidLen]
		p.pn = uint64(binary.BigEndian.Uint32(b[1+cidLen : 1+cidLen+pnLen]))
		off := 1 + cidLen + pnLen
		return p, off, len(b), b[:off], nil
	}
	if len(b) < 7 {
		return p, 0, 0, nil, errPacket
	}
	p.version = binary.BigEndian.Uint32(b[1:5])
	i := 5
	dl := int(b[i])
	i++
	if len(b) < i+dl+1 {
		return p, 0, 0, nil, errPacket
	}
	p.dcid = b[i : i+dl]
	i += dl
	sl := int(b[i])
	i++
	if len(b) < i+sl {
		return p, 0, 0, nil, errPacket
	}
	p.scid = b[i : i+sl]
	i += sl
	if p.version == 0 {
		// Version Negotiation: remainder is a version list.
		p.ptype = ptVersionNego
		rest := b[i:]
		for len(rest) >= 4 {
			p.versions = append(p.versions, binary.BigEndian.Uint32(rest[:4]))
			rest = rest[4:]
		}
		return p, i, len(b), nil, nil
	}
	p.ptype = packetType((first >> 4) & 0x03)
	if p.ptype == ptInitial {
		tl, n, err := readVarint(b[i:])
		if err != nil {
			return p, 0, 0, nil, err
		}
		i += n
		if len(b) < i+int(tl) {
			return p, 0, 0, nil, errPacket
		}
		p.token = b[i : i+int(tl)]
		i += int(tl)
	}
	length, n, err := readVarint(b[i:])
	if err != nil {
		return p, 0, 0, nil, err
	}
	i += n
	if len(b) < i+int(length) || length < pnLen {
		return p, 0, 0, nil, errPacket
	}
	p.pn = uint64(binary.BigEndian.Uint32(b[i : i+pnLen]))
	payloadOff = i + pnLen
	total = i + int(length)
	return p, payloadOff, total, b[:payloadOff], nil
}

// Initial packet protection (RFC 9001 §5.2 shaped): keys derived from the
// client's first Destination Connection ID so both endpoints can compute
// them before any TLS keys exist.
var initialSalt = []byte("repro-quic-initial-salt-v1")

func initialSecrets(dcid []byte) (client, server []byte) {
	prk := hmacSHA256(initialSalt, dcid)
	return expandLabel(prk, "client in"), expandLabel(prk, "server in")
}

func hmacSHA256(key, data []byte) []byte {
	s := tlsmini.HMACShort(key, data, nil)
	out := make([]byte, len(s))
	copy(out, s[:])
	return out
}

var expandCounterOne = []byte{1}

func expandLabel(prk []byte, label string) []byte {
	s := tlsmini.HMACShort(prk, []byte(label), expandCounterOne)
	out := make([]byte, len(s))
	copy(out, s[:])
	return out
}

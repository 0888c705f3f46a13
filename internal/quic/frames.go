package quic

import (
	"errors"
	"fmt"
)

// Frame type bytes (RFC 9000 §19, simplified set).
const (
	frPadding       = 0x00
	frPing          = 0x01
	frAck           = 0x02
	frCrypto        = 0x06
	frNewToken      = 0x07
	frStreamBase    = 0x08 // 0x08..0x0f with OFF/LEN/FIN bits
	frPathChallenge = 0x1a
	frPathResponse  = 0x1b
	frConnClose     = 0x1c
	frHandshakeDone = 0x1e
)

// pathDataLen is the fixed PATH_CHALLENGE/PATH_RESPONSE payload size
// (RFC 9000 §19.17).
const pathDataLen = 8

// frame is the decoded representation of any supported frame.
type frame struct {
	kind byte
	fin  bool // STREAM; beside kind so the two share a word

	// ACK
	largestAcked uint64
	firstRange   uint64

	// CRYPTO / STREAM
	offset uint64
	data   []byte

	// STREAM
	streamID uint64

	// NEW_TOKEN
	token []byte

	// PATH_CHALLENGE / PATH_RESPONSE (8 opaque bytes)
	pathData [pathDataLen]byte

	// CONNECTION_CLOSE
	errorCode uint64
	reason    string

	// PADDING
	padLen int
}

// ackEliciting reports whether the frame requires the peer to send an
// acknowledgement.
func (f *frame) ackEliciting() bool {
	switch f.kind {
	case frAck, frPadding, frConnClose:
		return false
	}
	return true
}

// retransmittable reports whether the frame's content must be recovered
// on loss. PATH_CHALLENGE is: a migrating endpoint must keep probing
// the new path until it is validated. PATH_RESPONSE is not — RFC 9000
// §13.3 forbids retransmitting responses; a lost one is recovered by
// the peer's retransmitted challenge.
func (f *frame) retransmittable() bool {
	switch f.kind {
	case frCrypto, frNewToken, frHandshakeDone, frPing, frPathChallenge:
		return true
	case frStreamBase:
		return true
	}
	return false
}

func appendFrame(b []byte, f *frame) []byte {
	switch f.kind {
	case frPadding:
		for i := 0; i < f.padLen; i++ {
			b = append(b, frPadding)
		}
		return b
	case frPing:
		return append(b, frPing)
	case frAck:
		b = append(b, frAck)
		b = appendVarint(b, f.largestAcked)
		b = appendVarint(b, 0) // ack delay
		b = appendVarint(b, 0) // additional range count
		b = appendVarint(b, f.firstRange)
		return b
	case frCrypto:
		b = append(b, frCrypto)
		b = appendVarint(b, f.offset)
		b = appendVarint(b, uint64(len(f.data)))
		return append(b, f.data...)
	case frNewToken:
		b = append(b, frNewToken)
		b = appendVarint(b, uint64(len(f.token)))
		return append(b, f.token...)
	case frStreamBase:
		t := byte(frStreamBase | 0x04 | 0x02) // OFF and LEN always present
		if f.fin {
			t |= 0x01
		}
		b = append(b, t)
		b = appendVarint(b, f.streamID)
		b = appendVarint(b, f.offset)
		b = appendVarint(b, uint64(len(f.data)))
		return append(b, f.data...)
	case frPathChallenge, frPathResponse:
		b = append(b, f.kind)
		return append(b, f.pathData[:]...)
	case frConnClose:
		b = append(b, frConnClose)
		b = appendVarint(b, f.errorCode)
		b = appendVarint(b, 0) // offending frame type
		b = appendVarint(b, uint64(len(f.reason)))
		return append(b, f.reason...)
	case frHandshakeDone:
		return append(b, frHandshakeDone)
	}
	panic(fmt.Sprintf("quic: cannot encode frame kind %#x", f.kind))
}

func frameWireLen(f *frame) int {
	switch f.kind {
	case frPadding:
		return f.padLen
	case frPing, frHandshakeDone:
		return 1
	case frAck:
		return 1 + varintLen(f.largestAcked) + 1 + 1 + varintLen(f.firstRange)
	case frCrypto:
		return 1 + varintLen(f.offset) + varintLen(uint64(len(f.data))) + len(f.data)
	case frNewToken:
		return 1 + varintLen(uint64(len(f.token))) + len(f.token)
	case frPathChallenge, frPathResponse:
		return 1 + pathDataLen
	case frStreamBase:
		return 1 + varintLen(f.streamID) + varintLen(f.offset) +
			varintLen(uint64(len(f.data))) + len(f.data)
	case frConnClose:
		return 1 + varintLen(f.errorCode) + 1 + varintLen(uint64(len(f.reason))) + len(f.reason)
	}
	return 0
}

var errFrame = errors.New("quic: malformed frame")

// parseFrames decodes all frames in a packet payload, appending them to
// dst (a per-connection scratch) by value. CRYPTO and STREAM data and
// NEW_TOKEN tokens alias b, so frames are valid only as long as b:
// whatever is kept past the packet is copied by its keeper. A payload
// with any malformed frame fails whole; the frames returned alongside
// the error only carry dst's (possibly grown) capacity back for reuse.
//
//simlint:hotpath
func parseFrames(b []byte, dst []frame) ([]frame, error) {
	for len(b) > 0 {
		t := b[0]
		var f frame
		var n int
		var err error
		switch {
		case t == frPadding:
			// Coalesce a run of padding into one frame.
			for n < len(b) && b[n] == frPadding {
				n++
			}
			f = frame{kind: frPadding, padLen: n}
			b = b[n:]
		case t == frPing:
			f.kind = frPing
			b = b[1:]
		case t == frAck:
			b = b[1:]
			f.kind = frAck
			if f.largestAcked, n, err = readVarint(b); err != nil {
				return dst, err
			}
			b = b[n:]
			if _, n, err = readVarint(b); err != nil { // delay
				return dst, err
			}
			b = b[n:]
			var rangeCount uint64
			if rangeCount, n, err = readVarint(b); err != nil {
				return dst, err
			}
			b = b[n:]
			if f.firstRange, n, err = readVarint(b); err != nil {
				return dst, err
			}
			b = b[n:]
			for i := uint64(0); i < rangeCount; i++ {
				// gap + range, both skipped (we never send them).
				for j := 0; j < 2; j++ {
					if _, n, err = readVarint(b); err != nil {
						return dst, err
					}
					b = b[n:]
				}
			}
		case t == frCrypto:
			b = b[1:]
			f.kind = frCrypto
			if f.offset, n, err = readVarint(b); err != nil {
				return dst, err
			}
			b = b[n:]
			if f.data, b, err = readLenPrefixed(b); err != nil {
				return dst, err
			}
		case t == frNewToken:
			f.kind = frNewToken
			if f.token, b, err = readLenPrefixed(b[1:]); err != nil {
				return dst, err
			}
		case t >= frStreamBase && t <= frStreamBase|0x07:
			hasOff := t&0x04 != 0
			hasLen := t&0x02 != 0
			f = frame{kind: frStreamBase, fin: t&0x01 != 0}
			b = b[1:]
			if f.streamID, n, err = readVarint(b); err != nil {
				return dst, err
			}
			b = b[n:]
			if hasOff {
				if f.offset, n, err = readVarint(b); err != nil {
					return dst, err
				}
				b = b[n:]
			}
			if hasLen {
				if f.data, b, err = readLenPrefixed(b); err != nil {
					return dst, err
				}
			} else {
				f.data, b = b, b[len(b):]
			}
		case t == frPathChallenge || t == frPathResponse:
			if len(b) < 1+pathDataLen {
				return dst, errFrame
			}
			f.kind = t
			copy(f.pathData[:], b[1:1+pathDataLen])
			b = b[1+pathDataLen:]
		case t == frConnClose:
			b = b[1:]
			f.kind = frConnClose
			if f.errorCode, n, err = readVarint(b); err != nil {
				return dst, err
			}
			b = b[n:]
			if _, n, err = readVarint(b); err != nil { // offending frame type
				return dst, err
			}
			var reason []byte
			if reason, b, err = readLenPrefixed(b[n:]); err != nil {
				return dst, err
			}
			f.reason = string(reason)
		case t == frHandshakeDone:
			f.kind = frHandshakeDone
			b = b[1:]
		default:
			return dst, errFrame
		}
		dst = append(dst, f)
	}
	return dst, nil
}

// readLenPrefixed splits a varint-length-prefixed field off b; the
// field aliases b.
func readLenPrefixed(b []byte) (field, rest []byte, err error) {
	ln, n, err := readVarint(b)
	if err != nil {
		return nil, b, err
	}
	b = b[n:]
	if uint64(len(b)) < ln {
		return nil, b, errFrame
	}
	return b[:ln:ln], b[ln:], nil
}

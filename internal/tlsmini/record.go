package tlsmini

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Stream is the byte-stream transport a Conn runs over. internal/tcpsim's
// Conn satisfies it.
type Stream interface {
	// Write queues p for reliable in-order delivery.
	Write(p []byte) error
	// Read blocks for the next chunk of bytes; ok is false at EOF.
	Read() ([]byte, bool)
	// Close tears the stream down.
	Close()
}

// Record framing: contentType(1) || epoch(1) || length(2) || payload.
// Protected epochs carry AEAD ciphertext (payload + 16-byte tag).
const recordHeaderLen = 4

// Content types.
const (
	recordHandshake = 22
	recordAppData   = 23
)

// Conn is a TLS session over a byte stream: the record-layer counterpart
// of crypto/tls.Conn for this repository's stack.
type Conn struct {
	stream   Stream
	engine   *Engine
	isClient bool

	rbuf []byte
	roff int // consumed prefix of rbuf
	wbuf []byte
	fbuf []byte // writeFlight encode scratch, reused across flights
	eof  bool

	readSeq  map[Epoch]uint64
	writeSeq map[Epoch]uint64

	sealer AEADCache
	opener AEADCache
	// aad is readRecord's AAD scratch (content type, epoch): a fresh
	// slice would escape through the AEAD interface on every record.
	aad [2]byte

	appIn   [][]byte
	hsDone  bool
	lastErr error
}

// NewConn wraps stream with a TLS endpoint configured by cfg.
func NewConn(stream Stream, cfg Config) *Conn {
	return &Conn{
		stream:   stream,
		engine:   NewEngine(cfg),
		isClient: cfg.IsClient,
		readSeq:  make(map[Epoch]uint64),
		writeSeq: make(map[Epoch]uint64),
	}
}

// Engine exposes the underlying handshake engine for inspection
// (negotiated version, ALPN, resumption).
func (c *Conn) Engine() *Engine { return c.engine }

// Handshake runs the handshake to completion on this side. Clients
// return once they have sent their Finished (and may immediately Write);
// servers return once the client Finished verifies.
func (c *Conn) Handshake() error {
	if c.hsDone {
		return c.lastErr
	}
	flight, err := c.engine.Start()
	if err != nil {
		return c.fatal(err)
	}
	if err := c.writeFlight(flight); err != nil {
		return c.fatal(err)
	}
	for !c.engine.Complete() {
		ct, epoch, payload, err := c.readRecord()
		if err != nil {
			return c.fatal(err)
		}
		if ct != recordHandshake {
			// Early application data on servers accepting 0-RTT arrives
			// before the handshake completes; buffer it.
			if epoch == EpochEarly && c.engine.EarlyDataAccepted() {
				c.appIn = append(c.appIn, payload)
				continue
			}
			return c.fatal(fmt.Errorf("tlsmini: unexpected content type %d during handshake", ct))
		}
		for len(payload) > 0 {
			m, n, err := DecodeMessage(payload)
			if err != nil {
				return c.fatal(err)
			}
			m.Epoch = epoch
			payload = payload[n:]
			out, err := c.engine.Handle(m)
			if err != nil {
				return c.fatal(err)
			}
			if err := c.writeFlight(out); err != nil {
				return c.fatal(err)
			}
		}
	}
	c.hsDone = true
	return nil
}

func (c *Conn) fatal(err error) error {
	if c.lastErr == nil {
		c.lastErr = err
	}
	c.hsDone = true
	return err
}

// writeFlight sends handshake messages, coalescing consecutive messages
// of the same epoch into one record as real stacks do.
func (c *Conn) writeFlight(msgs []Message) error {
	i := 0
	for i < len(msgs) {
		epoch := msgs[i].Epoch
		payload := c.fbuf[:0]
		for i < len(msgs) && msgs[i].Epoch == epoch {
			payload = AppendMessage(payload, msgs[i])
			i++
		}
		err := c.writeRecord(recordHandshake, epoch, payload)
		c.fbuf = payload[:0]
		if err != nil {
			return err
		}
	}
	return nil
}

// writeRecord assembles the wire record in a buffer reused across
// records (the stream copies what it keeps, so handing it the same
// backing array every time is safe).
func (c *Conn) writeRecord(ct byte, epoch Epoch, payload []byte) error {
	b := append(c.wbuf[:0], ct, byte(epoch), 0, 0)
	if epoch == EpochInitial {
		b = append(b, payload...)
	} else {
		secret := c.engine.TrafficSecret(epoch, c.isClient)
		if secret == nil {
			return fmt.Errorf("tlsmini: no write key for epoch %v", epoch)
		}
		seq := c.writeSeq[epoch]
		c.writeSeq[epoch] = seq + 1
		// The AAD is exactly the first two header bytes already in b.
		b = c.sealer.SealAppend(b, secret, seq, payload, b[:2])
	}
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)-recordHeaderLen))
	c.wbuf = b[:0]
	return c.stream.Write(b)
}

func (c *Conn) readRecord() (ct byte, epoch Epoch, payload []byte, err error) {
	for len(c.rbuf)-c.roff < recordHeaderLen {
		if !c.fill() {
			return 0, 0, nil, errors.New("tlsmini: stream closed")
		}
	}
	hdr := c.rbuf[c.roff:]
	ct, epoch = hdr[0], Epoch(hdr[1])
	if epoch > EpochApp {
		return 0, 0, nil, fmt.Errorf("tlsmini: bad record epoch %d", uint8(epoch))
	}
	n := int(binary.BigEndian.Uint16(hdr[2:4]))
	for len(c.rbuf)-c.roff < recordHeaderLen+n {
		if !c.fill() {
			return 0, 0, nil, errors.New("tlsmini: stream closed mid-record")
		}
	}
	body := c.rbuf[c.roff+recordHeaderLen : c.roff+recordHeaderLen+n]
	c.roff += recordHeaderLen + n
	if c.roff == len(c.rbuf) {
		// Fully consumed: rewind so fill appends from the start again.
		c.rbuf = c.rbuf[:0]
		c.roff = 0
	}
	if epoch == EpochInitial {
		// Copy: body aliases rbuf, which is overwritten by later fills,
		// and decoded handshake messages may retain slices of it.
		return ct, epoch, append([]byte(nil), body...), nil
	}
	secret := c.engine.TrafficSecret(epoch, !c.isClient)
	if secret == nil {
		return 0, 0, nil, fmt.Errorf("tlsmini: no read key for epoch %v", epoch)
	}
	seq := c.readSeq[epoch]
	c.readSeq[epoch] = seq + 1
	c.aad = [2]byte{ct, byte(epoch)}
	plain, err := c.opener.Open(secret, seq, body, c.aad[:])
	if err != nil {
		return 0, 0, nil, err
	}
	return ct, epoch, plain, nil
}

func (c *Conn) fill() bool {
	if c.eof {
		return false
	}
	chunk, ok := c.stream.Read()
	if !ok {
		c.eof = true
		return false
	}
	c.rbuf = append(c.rbuf, chunk...)
	return true
}

// Write sends application data in a protected record. It is valid after
// Handshake, or before it on clients that negotiated 0-RTT (the data is
// then sent under the early traffic keys).
func (c *Conn) Write(p []byte) error {
	if c.lastErr != nil {
		return c.lastErr
	}
	epoch := EpochApp
	if !c.hsDone {
		if c.isClient && c.engine.EarlyDataOffered() {
			epoch = EpochEarly
		} else {
			return errors.New("tlsmini: Write before handshake")
		}
	}
	return c.writeRecord(recordAppData, epoch, p)
}

// Read returns the next application data record's payload. Post-handshake
// messages (NewSessionTicket) are consumed transparently. ok is false at
// stream end or on error.
func (c *Conn) Read() ([]byte, bool) {
	for {
		if len(c.appIn) > 0 {
			p := c.appIn[0]
			c.appIn = c.appIn[1:]
			return p, true
		}
		ct, epoch, payload, err := c.readRecord()
		if err != nil {
			return nil, false
		}
		switch ct {
		case recordAppData:
			return payload, true
		case recordHandshake:
			for len(payload) > 0 {
				m, n, err := DecodeMessage(payload)
				if err != nil {
					return nil, false
				}
				m.Epoch = epoch
				payload = payload[n:]
				out, err := c.engine.Handle(m)
				if err != nil {
					return nil, false
				}
				if err := c.writeFlight(out); err != nil {
					return nil, false
				}
			}
		default:
			return nil, false
		}
	}
}

// Close closes the underlying stream.
func (c *Conn) Close() { c.stream.Close() }

package quic

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"repro/internal/netem"
	"repro/internal/tlsmini"
)

// peerPacket seals frames into a 1-RTT packet addressed to c, as c's
// peer would: dst is reused, secret is the peer's 1-RTT write secret.
func peerPacket(dst []byte, c *Conn, sealer *tlsmini.AEADCache, secret []byte, pn uint64, plain []byte) []byte {
	dst = appendHeader(dst[:0], ptOneRTT, c.version, c.scid, nil, nil, pn, len(plain)+tlsmini.AEADOverhead)
	return sealer.SealAppend(dst, secret, pn, plain, dst)
}

func encodeFrames(frames []frame) []byte {
	var b []byte
	for i := range frames {
		b = appendFrame(b, &frames[i])
	}
	return b
}

// TestOneRTTReceiveZeroAlloc guards the steady-state receive path: the
// packet is decrypted in place in its datagram buffer and parsed into
// the connection's frame scratch, so a 1-RTT packet carrying only ACK
// and PADDING allocates nothing, and one carrying an in-order STREAM
// frame allocates only the copy of the data it delivers.
func TestOneRTTReceiveZeroAlloc(t *testing.T) {
	e := newEnv(4, 20*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	var ackAllocs, streamAllocs float64
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		st := c.OpenStream()
		st.Write([]byte("warm"), true)
		if _, ok := st.ReadAll(); !ok {
			t.Error("warm-up query failed")
			return
		}

		secret := c.engine.TrafficSecret(tlsmini.EpochApp, false)
		var sealer tlsmini.AEADCache
		dgram := make([]byte, 0, maxDatagram)
		pn := uint64(1 << 20) // above anything the server sent
		deliver := func(plain []byte) {
			pn++
			dgram = peerPacket(dgram, c, &sealer, secret, pn, plain)
			c.handleDatagram(netem.Datagram{Payload: dgram})
		}

		acked := c.spaces[spcApp].nextPN - 1
		ackOnly := encodeFrames([]frame{
			{kind: frAck, largestAcked: acked},
			{kind: frPadding, padLen: 20},
		})
		ackAllocs = testing.AllocsPerRun(200, func() { deliver(ackOnly) })

		rx := c.OpenStream()
		data := bytes.Repeat([]byte{'d'}, 64)
		var off uint64
		var plain []byte
		streamAllocs = testing.AllocsPerRun(200, func() {
			f := frame{kind: frStreamBase, streamID: rx.ID(), offset: off, data: data}
			plain = appendFrame(plain[:0], &f)
			off += uint64(len(data))
			deliver(plain)
			if got, ok := rx.readQ.TryPop(); !ok || len(got) != len(data) {
				t.Errorf("in-order STREAM data not delivered: %d bytes, ok=%v", len(got), ok)
			}
			// The packet is acknowledged: let the ACK reach the server,
			// so its datagram buffer and timer entries are recycled as in
			// a running connection.
			e.w.Sleep(e.rtt)
		})
	})
	e.w.Run()
	t.Logf("allocs per packet: ACK+PADDING %v, in-order STREAM %v", ackAllocs, streamAllocs)
	if ackAllocs != 0 {
		t.Errorf("ACK+PADDING packet: %v allocs, want 0", ackAllocs)
	}
	if streamAllocs > 1 {
		t.Errorf("in-order STREAM packet: %v allocs, want at most 1 (the delivered copy)", streamAllocs)
	}
}

// TestFinishedStreamsRetire runs 2,400 queries over one connection and
// checks that neither endpoint keeps finished streams, that a replayed
// STREAM frame for a retired stream is acknowledged without opening a
// stream, and that a stream whose first frame arrives after a later
// stream's is still created.
func TestFinishedStreamsRetire(t *testing.T) {
	e := newEnv(5, 10*time.Millisecond, 0.02)
	l := e.startEchoServer(t, e.serverCfg())
	const queries = 2400
	maxClient, maxServer := 0, 0
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		var srv *Conn
		for _, sc := range l.conns {
			srv = sc
		}
		for i := 0; i < queries; i++ {
			st := c.OpenStream()
			st.Write([]byte("query"), true)
			if got, ok := st.ReadAll(); !ok || string(got) != "echo:query" {
				t.Errorf("query %d: %q, ok=%v", i, got, ok)
				return
			}
			maxClient = max(maxClient, len(c.streams))
			maxServer = max(maxServer, len(srv.streams))
		}
		e.w.Sleep(time.Second) // let the last FINs and ACKs settle
		if len(c.streams) != 0 || len(srv.streams) != 0 {
			t.Errorf("after %d queries: %d client and %d server streams live, want 0", queries, len(c.streams), len(srv.streams))
		}

		// Replay the first query's STREAM frame to the server.
		var sealer tlsmini.AEADCache
		secret := c.engine.TrafficSecret(tlsmini.EpochApp, true)
		pn := uint64(1 << 20)
		replay := encodeFrames([]frame{{kind: frStreamBase, streamID: 0, data: []byte("query"), fin: true}})
		srv.handleDatagram(netem.Datagram{Payload: peerPacket(nil, srv, &sealer, secret, pn, replay)})
		if len(srv.streams) != 0 || srv.acceptQ.Len() != 0 {
			t.Errorf("replayed frame for retired stream 0 opened a stream (%d live, %d to accept)", len(srv.streams), srv.acceptQ.Len())
		}
		if top, _ := srv.spaces[spcApp].recvd.top(); top.hi != pn {
			t.Errorf("replayed packet %d not recorded for acknowledgement (top %d)", pn, top.hi)
		}

		// Stream IDs past the limit, out of order: the higher one first,
		// then the one it skipped. Both are new streams.
		next := c.nextStreamID
		for i, id := range []uint64{next + 4, next} {
			pn++
			f := encodeFrames([]frame{{kind: frStreamBase, streamID: id, data: []byte("late")}})
			srv.handleDatagram(netem.Datagram{Payload: peerPacket(nil, srv, &sealer, secret, pn, f)})
			if srv.streams[id] == nil || srv.acceptQ.Len() != i+1 {
				t.Errorf("stream %d not created (%d to accept)", id, srv.acceptQ.Len())
			}
		}
		if len(srv.streamGaps) != 0 {
			t.Errorf("gap list %v not drained", srv.streamGaps)
		}
		// A hostile ID far past the limit would leave more gaps than
		// the bound: refused, and nothing is recorded.
		pn++
		far := encodeFrames([]frame{{kind: frStreamBase, streamID: 1 << 60, data: []byte("far")}})
		srv.handleDatagram(netem.Datagram{Payload: peerPacket(nil, srv, &sealer, secret, pn, far)})
		if srv.streams[1<<60] != nil || len(srv.streamGaps) != 0 {
			t.Errorf("stream ID 2^60 accepted (%d gaps recorded)", len(srv.streamGaps))
		}
	})
	e.w.Run()
	t.Logf("peak live streams over %d queries: client %d, server %d", queries, maxClient, maxServer)
	if maxClient > 1 || maxServer > 1 {
		t.Errorf("live streams grew to %d (client) and %d (server), want at most 1 each", maxClient, maxServer)
	}
}

// plaintexts returns the decrypted payload of every packet a fresh
// connection exchanges over a handshake and two queries: Initial,
// Handshake and 1-RTT packets in both directions.
func plaintexts(tb testing.TB) (byType map[packetType][][]byte) {
	e := newEnv(6, 20*time.Millisecond, 0)
	l := e.startEchoServer(tb, e.serverCfg())
	var dgrams [][]byte
	e.client.Network().Trace = func(d netem.Datagram, _ time.Duration) {
		dgrams = append(dgrams, append([]byte(nil), d.Payload...))
	}
	var c *Conn
	e.w.Go(func() {
		var err error
		if c, err = Dial(e.client, l.Addr(), e.clientCfg()); err != nil {
			tb.Error(err)
			return
		}
		for _, q := range []string{"a.example", "b.example"} {
			st := c.OpenStream()
			st.Write([]byte(q), true)
			st.ReadAll()
		}
		c.Close()
	})
	e.w.Run()
	if c == nil {
		tb.Fatal("no connection")
	}
	byType = map[packetType][][]byte{}
	var opener tlsmini.AEADCache
	for _, d := range dgrams {
		for b := d; len(b) > 0; {
			p, off, total, aad, err := parseHeader(b)
			if err != nil {
				tb.Fatalf("captured datagram: %v", err)
			}
			// The server's scid is the client's dcid, so packets toward
			// the server carry the client's adopted dcid or, in the
			// first flight, the original one.
			fromClient := !bytes.Equal(p.dcid, c.scid)
			var secret []byte
			switch p.ptype {
			case ptInitial:
				secret = c.initialServer
				if fromClient {
					secret = c.initialClient
				}
			case ptHandshake:
				secret = c.engine.TrafficSecret(tlsmini.EpochHandshake, fromClient)
			case ptOneRTT:
				secret = c.engine.TrafficSecret(tlsmini.EpochApp, fromClient)
			}
			plain, err := opener.Open(secret, p.pn, b[off:total], aad)
			if err != nil {
				tb.Fatalf("captured %v packet %d: %v", p.ptype, p.pn, err)
			}
			byType[p.ptype] = append(byType[p.ptype], plain)
			b = b[total:]
		}
	}
	for _, pt := range []packetType{ptInitial, ptHandshake, ptOneRTT} {
		if len(byType[pt]) == 0 {
			tb.Fatalf("no %v packets captured", pt)
		}
	}
	return byType
}

// inside reports whether s lies within b's bytes.
func inside(b, s []byte) bool {
	if len(s) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}

func sameFrame(a, b *frame) bool {
	return a.kind == b.kind && a.largestAcked == b.largestAcked && a.firstRange == b.firstRange &&
		a.offset == b.offset && bytes.Equal(a.data, b.data) && a.streamID == b.streamID &&
		a.fin == b.fin && bytes.Equal(a.token, b.token) && a.pathData == b.pathData &&
		a.errorCode == b.errorCode && a.reason == b.reason && a.padLen == b.padLen
}

// FuzzParseFrames checks the frame parser on hostile payloads: it never
// panics; every CRYPTO/STREAM data and NEW_TOKEN token it returns
// aliases the input (the receive path's contract: frames are views of
// the decrypted packet); and re-encoding the frames reproduces the
// input when the input is canonical (as every real plaintext in the
// seed corpus is) and is otherwise a fixed point: one re-encoding makes
// any accepted payload canonical.
func FuzzParseFrames(f *testing.F) {
	canonical := map[string]bool{}
	for _, ps := range plaintexts(f) {
		for _, p := range ps {
			canonical[string(p)] = true
			f.Add(p)
		}
	}
	f.Add([]byte{frAck, 0x40})                           // truncated varint
	f.Add([]byte{frStreamBase | 0x02, 0, 9, 'x'})        // length past the end
	f.Add([]byte{frStreamBase | 0x01, 4, 'n', 'o', 'l'}) // no OFF/LEN: data runs to the end
	f.Add([]byte{frPathChallenge, 1, 2, 3})              // short path data
	f.Add([]byte{frConnClose, 1, 0, 3, 'b', 'y', 'e'})
	f.Add([]byte{0x3f})

	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := parseFrames(b, nil)
		if err != nil {
			return
		}
		for i := range frames {
			if !inside(b, frames[i].data) || !inside(b, frames[i].token) {
				t.Fatalf("frame %d (kind %#x) does not alias the input", i, frames[i].kind)
			}
		}
		wire := encodeFrames(frames)
		if canonical[string(b)] && !bytes.Equal(wire, b) {
			t.Fatalf("real plaintext did not round-trip:\nin:  %x\nout: %x", b, wire)
		}
		again, err := parseFrames(wire, nil)
		if err != nil {
			t.Fatalf("re-encoded frames do not parse: %v\nwire: %x", err, wire)
		}
		if len(again) != len(frames) {
			t.Fatalf("re-encoding changed the frame count: %d -> %d", len(frames), len(again))
		}
		for i := range frames {
			if !sameFrame(&frames[i], &again[i]) {
				t.Fatalf("frame %d changed on re-encoding:\nbefore: %+v\nafter:  %+v", i, frames[i], again[i])
			}
		}
		if wire2 := encodeFrames(again); !bytes.Equal(wire, wire2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %x\nsecond: %x", wire, wire2)
		}
	})
}

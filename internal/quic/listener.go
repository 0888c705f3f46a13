package quic

import (
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

// udpOverhead is the per-datagram UDP header size counted as IP payload.
const udpOverhead = 8

// Dial establishes a QUIC connection and blocks until the handshake
// completes (one RTT with or without resumption; plus one RTT if the
// server requires Version Negotiation; plus one RTT if the server's
// certificate chain exceeds the amplification budget and no token was
// presented).
func Dial(host *netem.Host, raddr netip.AddrPort, cfg Config) (*Conn, error) {
	versions := cfg.versions()
	version := versions[0]
	vnHappened := false
	for attempt := 0; attempt < 4; attempt++ {
		c := dialOnce(host, raddr, cfg, version, vnHappened)
		err := c.WaitHandshake()
		if err == errVersionNegotiation {
			chosen, ok := pickVersion(versions, c.vnVersions)
			c.teardown(err)
			if !ok {
				return nil, errors.New("quic: no common version with server")
			}
			version = chosen
			vnHappened = true
			continue
		}
		if err != nil {
			c.teardown(err)
			return nil, err
		}
		return c, nil
	}
	return nil, errors.New("quic: dial failed after version negotiation")
}

// DialEarly starts a connection and returns before the handshake
// completes, so the caller can open streams and write 0-RTT data
// immediately. Use WaitHandshake to join. DialEarly does not handle
// Version Negotiation transparently: callers resuming a session are
// expected to offer the previously negotiated version first (cfg.Versions
// [0]), per the paper's methodology of caching the negotiated version
// alongside the session ticket.
func DialEarly(host *netem.Host, raddr netip.AddrPort, cfg Config) (*Conn, error) {
	return dialOnce(host, raddr, cfg, cfg.versions()[0], false), nil
}

func dialOnce(host *netem.Host, raddr netip.AddrPort, cfg Config, version uint32, vnHappened bool) *Conn {
	sock := host.Dial(netem.ProtoUDP, udpOverhead)
	c := newConn(host.World(), sock, true, raddr, true, cfg, version)
	c.host = host
	c.vnHappened = vnHappened
	if err := c.startClient(); err != nil {
		c.teardown(err)
		return c
	}
	host.World().Go(func() { c.recvLoop(sock) })
	return c
}

func pickVersion(offered, supported []uint32) (uint32, bool) {
	for _, o := range offered {
		for _, s := range supported {
			if o == s {
				return o, true
			}
		}
	}
	return 0, false
}

// Listener accepts QUIC connections on a UDP port.
type Listener struct {
	w    *sim.World
	sock *netem.Socket
	cfg  Config
	// conns routes datagrams by source address (the fast path); byCID
	// routes short-header packets from unknown addresses by their
	// destination connection ID, which is how a migrated client's new
	// path finds its connection (RFC 9000 §9).
	conns   map[netip.AddrPort]*Conn
	byCID   map[string]*Conn
	acceptQ *sim.Queue[*Conn]
	closed  bool
}

// Listen binds a QUIC listener. Connections are delivered to Accept once
// their handshake completes.
func Listen(host *netem.Host, port uint16, cfg Config) (*Listener, error) {
	sock, err := host.Listen(netem.ProtoUDP, port, udpOverhead)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		w:       host.World(),
		sock:    sock,
		cfg:     cfg,
		conns:   make(map[netip.AddrPort]*Conn),
		byCID:   make(map[string]*Conn),
		acceptQ: sim.NewQueue[*Conn](host.World(), fmt.Sprintf("quic-listen:%d", port)),
	}
	l.w.Go(l.demux)
	return l, nil
}

// Accept blocks for the next handshake-complete connection.
func (l *Listener) Accept() (*Conn, bool) { return l.acceptQ.Pop() }

// Addr returns the bound address.
func (l *Listener) Addr() netip.AddrPort { return l.sock.LocalAddr() }

// Close stops the listener.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.sock.Close()
	l.acceptQ.Close()
}

func (l *Listener) demux() {
	for {
		d, ok := l.sock.Recv()
		if !ok {
			return
		}
		if d.Reject {
			// Middlebox rejection of one of our sends; a server has no
			// per-path state worth tearing down for it.
			continue
		}
		l.handleOne(d)
		// Nothing retains the datagram buffer past handleOne (connections
		// copy what they keep), so it goes back to the pool here.
		l.sock.Pool().Put(d.Payload)
	}
}

func (l *Listener) handleOne(d netem.Datagram) {
	if conn, ok := l.conns[d.Src]; ok {
		conn.handleDatagram(d)
		return
	}
	p, _, _, _, err := parseHeader(d.Payload)
	if err != nil {
		return
	}
	if p.ptype == ptOneRTT {
		// A short-header packet from an unknown address addressed to a
		// live connection's CID is a migrated client: rebind the
		// connection to the new path and let the packet (usually
		// carrying PATH_CHALLENGE) process normally, so the response
		// goes to the new address.
		conn, ok := l.byCID[string(p.dcid)]
		if !ok {
			return
		}
		if top, ok := conn.spaces[spcApp].recvd.top(); ok && p.pn <= top.hi {
			// A reordered straggler from a retired path must not rebind
			// the connection backwards (RFC 9000 §9.3 only moves the
			// path on the highest-numbered non-probing packet). Process
			// it against the connection's current path.
			conn.handleDatagram(d)
			return
		}
		delete(l.conns, conn.peer)
		conn.peer = d.Src
		l.conns[d.Src] = conn
		// The path changed under the peer, so anything outstanding
		// toward the old address — typically a response the migrating
		// client will otherwise wait a probe timeout for — is lost
		// (RFC 9000 §9.4). Recover it onto the new path immediately,
		// mirroring what the migrating client does for its own
		// application space.
		conn.retransmitUnacked(spcApp)
		conn.handleDatagram(d)
		return
	}
	if !versionSupported(l.cfg.versions(), p.version) {
		vn := encodeVersionNegotiation(p.scid, p.dcid, l.cfg.versions())
		l.sock.Send(d.Src, vn)
		return
	}
	if p.ptype != ptInitial && p.ptype != ptZeroRTT {
		return
	}
	// A 0-RTT packet can outrun its Initial under reordering; it
	// carries the same original DCID, so the connection can be set
	// up from it and the packet parks in the undecryptable buffer
	// until the ClientHello arrives.
	c := newConn(l.w, l.sock, false, d.Src, false, l.cfg, p.version)
	c.engine = tlsmini.NewEngine(c.tlsConfig())
	c.dcid = append([]byte(nil), p.scid...)
	c.initialClient, c.initialServer = initialSecrets(p.dcid)
	if len(l.cfg.TokenKey) > 0 && validToken(l.cfg.TokenKey, p.token, d.Src.Addr()) {
		c.validated = true
	}
	c.onClose = func() {
		// c.peer tracks migrations, so delete by its current value.
		delete(l.conns, c.peer)
		delete(l.byCID, string(c.scid))
	}
	l.conns[d.Src] = c
	l.byCID[string(c.scid)] = c
	// Hand the connection to Accept immediately so servers can read
	// 0-RTT stream data before the handshake completes; failed
	// handshakes tear the connection (and its streams) down.
	l.acceptQ.Push(c)
	c.handleDatagram(d)
}

func versionSupported(set []uint32, v uint32) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/browser"
	"repro/internal/cache"
	"repro/internal/dnsmsg"
	"repro/internal/dnsproxy"
	"repro/internal/dox"
	"repro/internal/h2"
	"repro/internal/h3"
	"repro/internal/measure"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/pages"
	"repro/internal/quic"
	"repro/internal/resolver"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tlsmini"
)

// probe is one timed layer operation: host time and heap allocations
// per operation over N operations.
type probe struct {
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Failed      int     `json:"failed,omitempty"`
	// Value is a probe-specific outcome (cache.lookup: hit ratio).
	Value float64 `json:"value,omitempty"`
}

// probeMetric derives one per-layer metric from the probes.
type probeMetric struct {
	metricDef
	probe string // the probe whose N is reported
	pick  func(map[string]probe) float64
}

func nsOf(name string, scale float64) func(map[string]probe) float64 {
	return func(ps map[string]probe) float64 { return ps[name].NsPerOp * scale }
}

var probeMetrics = func() []probeMetric {
	ns := func(metric, probeName string, scale float64) probeMetric {
		return probeMetric{metricDef{metric, "ns", true}, probeName, nsOf(probeName, scale)}
	}
	ms := []probeMetric{
		// A ping-pong round trip is two handoffs.
		ns("sim.handoff_ns", "sim.pingpong", 0.5),
		ns("sim.timer_ns", "sim.timer", 1),
		ns("netem.datagram_ns", "netem.datagram", 1),
		{metricDef{"netem.datagram_allocs", "allocs/op", true}, "netem.datagram",
			func(ps map[string]probe) float64 { return ps["netem.datagram"].AllocsPerOp }},
		ns("tcpsim.handshake_ns", "tcpsim.handshake", 1),
		{metricDef{"tcpsim.transfer_ns_per_kb", "ns/KB", true}, "tcpsim.transfer", nsOf("tcpsim.transfer", 1.0/transferKB)},
		ns("quic.handshake_ns", "quic.handshake", 1),
		ns("quic.stream_query_ns", "quic.stream_query", 1),
		ns("quic.stream_query_late_ns", "quic.stream_query_late", 1),
		ns("tlsmini.full_handshake_ns", "tlsmini.full_handshake", 1),
		ns("tlsmini.resumed_handshake_ns", "tlsmini.resumed_handshake", 1),
		ns("tlsmini.seal_ns", "tlsmini.seal", 1),
		ns("dnsmsg.encode_ns", "dnsmsg.encode", 1),
		ns("dnsmsg.decode_ns", "dnsmsg.decode", 1),
		{metricDef{"dnsmsg.allocs_per_msg", "allocs/msg", true}, "dnsmsg.decode",
			func(ps map[string]probe) float64 {
				return ps["dnsmsg.encode"].AllocsPerOp + ps["dnsmsg.decode"].AllocsPerOp
			}},
		ns("h2.roundtrip_ns", "h2.roundtrip", 1),
		ns("h3.roundtrip_ns", "h3.roundtrip", 1),
		ns("h3.qpack_ns", "h3.qpack", 1),
		ns("cache.lookup_ns", "cache.lookup", 1),
		ns("cache.put_ns", "cache.put", 1),
		{metricDef{"cache.hit_ratio", "ratio", false}, "cache.lookup",
			func(ps map[string]probe) float64 { return ps["cache.lookup"].Value }},
		ns("browser.load_ns", "browser.load", 1),
	}
	for _, p := range dox.AllProtocols {
		name := "dox.exchange." + p.String()
		ms = append(ms, ns("dox.exchange_ns."+p.String(), name, 1))
	}
	return ms
}()

// Probe sizes. transferKB is the tcpsim write size, a full TLS record.
const (
	transferKB = 16
	// lateQueries ages the connection of quic.stream_query_late by one
	// proxy-zipf stream: every client's queries.
	lateQueries = 4 * proxyQueries
)

// timed runs body, which performs n operations, and measures it.
func timed(n int, body func()) probe {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	body()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return probe{
		N:           n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
}

// onHost times op outside any World after warm untimed calls.
func onHost(warm, n int, op func(i int)) probe {
	for i := 0; i < warm; i++ {
		op(i)
	}
	return timed(n, func() {
		for i := 0; i < n; i++ {
			op(warm + i)
		}
	})
}

// inWorld times op as one task of w: warm untimed calls first, then n
// timed ones; each phase runs the World until it is idle.
func inWorld(w *sim.World, warm, n int, op func(i int)) probe {
	w.Go(func() {
		for i := 0; i < warm; i++ {
			op(i)
		}
	})
	w.Run()
	return timed(n, func() {
		w.Go(func() {
			for i := 0; i < n; i++ {
				op(warm + i)
			}
		})
		w.Run()
	})
}

// probeEnv is one vantage and one resolver of the workload's population
// in a World of their own, plus a bare server host on a lossless copy of
// the vantage-resolver path for the transport-level probes.
type probeEnv struct {
	u      *resolver.Universe
	vp     *resolver.Vantage
	res    *resolver.Resolver
	server *netem.Host
	rng    *rand.Rand
	ident  *tlsmini.Identity
}

func newProbeEnv(bp *resolver.Blueprint, seed int64) (*probeEnv, error) {
	u, err := bp.Instantiate(seed, resolver.Scope{Vantages: []int{0}, ResolverHi: 1})
	if err != nil {
		return nil, err
	}
	e := &probeEnv{u: u, vp: u.Vantages[0], res: u.Resolvers[0], rng: rand.New(rand.NewSource(seed))}
	e.server = u.Net.Host(netip.AddrFrom4([4]byte{10, 9, 0, 1}))
	path := u.Net.Path(e.vp.Host.Addr(), e.res.Addr)
	path.Loss = 0
	u.Net.SetSymmetricPath(e.vp.Host.Addr(), e.server.Addr(), path)
	e.ident = tlsmini.GenerateIdentity(e.rng, "probe.example", e.res.CertChainSize)
	return e, nil
}

func (e *probeEnv) close() { e.u.W.Shutdown() }

func (e *probeEnv) quicConfig(server bool, alpn string) quic.Config {
	cfg := quic.Config{ALPN: []string{alpn}, Rand: e.rng, Now: e.u.W.Now}
	if server {
		cfg.Identity = e.ident
		cfg.TicketStore = tlsmini.NewTicketStore()
		cfg.TokenKey = []byte("probe-token-key")
	} else {
		cfg.ServerName = "probe.example"
		cfg.SessionCache = tlsmini.NewSessionCache()
	}
	return cfg
}

// runProbes times every layer probe with inputs drawn from the
// workload's population and names.
func runProbes(wl *workload, bp *resolver.Blueprint, seed int64) (map[string]probe, error) {
	names := wl.names(seed)
	ps := map[string]probe{}
	steps := []func(*probeEnv, []string, map[string]probe) error{
		probeSim, probeNetem, probeTCP, probeQUIC, probeH3, probeH2, probeTLS,
		probeDNSMsg, probeCache, probeBrowser,
	}
	for _, proto := range dox.AllProtocols {
		steps = append(steps, func(e *probeEnv, names []string, ps map[string]probe) error {
			return probeDox(e, proto, names, ps)
		})
	}
	// Every probe gets a World of its own, so no probe pays for events
	// another left behind.
	for _, step := range steps {
		env, err := newProbeEnv(bp, seed)
		if err != nil {
			return nil, err
		}
		err = step(env, names, ps)
		env.close()
		if err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// responseWire is an encoded A answer for name.
func responseWire(id uint16, name string) []byte {
	q := dnsmsg.NewQuery(id, name, dnsmsg.TypeA)
	r := dnsmsg.Reply(q)
	r.AnswerA(netip.AddrFrom4([4]byte{192, 0, 2, byte(id)}), 300)
	return r.Encode()
}

func probeSim(e *probeEnv, _ []string, ps map[string]probe) error {
	w := e.u.W
	ping, pong := sim.NewQueue[int](w, "probe-ping"), sim.NewQueue[int](w, "probe-pong")
	w.Go(func() {
		for {
			v, ok := ping.Pop()
			if !ok {
				return
			}
			pong.Push(v)
		}
	})
	ps["sim.pingpong"] = inWorld(w, 1000, 100000, func(i int) {
		ping.Push(i)
		pong.Pop()
	})
	ping.Close()

	const fires = 100000
	left := 0
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			w.AfterFunc(time.Microsecond, fire)
		}
	}
	ps["sim.timer"] = timed(fires, func() {
		left = fires
		w.Go(func() { w.AfterFunc(time.Microsecond, fire) })
		w.Run()
	})
	return nil
}

func probeNetem(e *probeEnv, names []string, ps map[string]probe) error {
	client := e.vp.Host.Dial(netem.ProtoUDP, 8)
	server, err := e.server.Listen(netem.ProtoUDP, 5300, 8)
	if err != nil {
		return err
	}
	payload := responseWire(1, names[0])
	ps["netem.datagram"] = inWorld(e.u.W, 1000, 20000, func(int) {
		client.Send(server.LocalAddr(), append(client.Pool().Get(len(payload)), payload...))
		d, _ := server.Recv()
		server.Pool().Put(d.Payload)
	})
	return nil
}

func probeTCP(e *probeEnv, _ []string, ps map[string]probe) error {
	w := e.u.W
	l, err := tcpsim.Listen(e.server, 5301)
	if err != nil {
		return err
	}
	// The server drains every connection until the client closes it.
	w.Go(func() {
		for {
			c, ok := l.Accept()
			if !ok {
				return
			}
			w.Go(func() {
				for {
					if _, ok := c.Read(); !ok {
						return
					}
				}
			})
		}
	})
	chunk := make([]byte, transferKB*1024)
	var conn *tcpsim.Conn
	w.Go(func() { conn, err = tcpsim.Dial(e.vp.Host, l.Addr()) })
	w.Run()
	if err != nil {
		return fmt.Errorf("tcpsim probe: %w", err)
	}
	var failed int
	ps["tcpsim.transfer"] = inWorld(w, 10, 500, func(int) {
		if conn.Write(chunk) != nil {
			failed++
		}
	})
	conn.Close()
	hs := inWorld(w, 20, 2000, func(int) {
		c, err := tcpsim.Dial(e.vp.Host, l.Addr())
		if err != nil {
			failed++
			return
		}
		c.Close()
	})
	hs.Failed = failed
	ps["tcpsim.handshake"] = hs

	l.Close()
	if failed > 0 {
		return fmt.Errorf("tcpsim probe: %d operations failed", failed)
	}
	return nil
}

// echoQUIC serves every stream of every connection by echoing its data.
func echoQUIC(w *sim.World, l *quic.Listener) {
	w.Go(func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			w.Go(func() {
				for {
					st, ok := conn.AcceptStream()
					if !ok {
						return
					}
					w.Go(func() {
						if data, ok := st.ReadAll(); ok {
							st.Write(data, true)
						}
					})
				}
			})
		}
	})
}

func probeQUIC(e *probeEnv, names []string, ps map[string]probe) error {
	w := e.u.W
	l, err := quic.Listen(e.server, 853, e.quicConfig(true, "doq"))
	if err != nil {
		return err
	}
	echoQUIC(w, l)
	cfg := e.quicConfig(false, "doq")
	query := dnsmsg.NewQuery(1, names[0], dnsmsg.TypeA)
	wire := query.Encode()
	var conn *quic.Conn
	var failed int
	streamQuery := func(int) {
		st := conn.OpenStream()
		st.Write(wire, true)
		if _, ok := st.ReadAll(); !ok {
			failed++
		}
	}
	// The first connection provisions the ticket and token that make
	// the timed handshakes resumed ones, then carries the fresh and the
	// late stream-query probes.
	w.Go(func() {
		conn, err = quic.Dial(e.vp.Host, l.Addr(), cfg)
		if err == nil {
			streamQuery(0)
			cfg.Token = conn.NewToken()
		}
	})
	w.Run()
	if err != nil {
		return fmt.Errorf("quic probe: %w", err)
	}
	ps["quic.stream_query"] = inWorld(w, 0, 200, streamQuery)
	ps["quic.stream_query_late"] = inWorld(w, lateQueries, 200, streamQuery)
	conn.Close()
	var resumed int
	ps["quic.handshake"] = inWorld(w, 5, 300, func(int) {
		// Dial returns once the handshake is complete, as the DoQ
		// client's measured connection does.
		c, err := quic.Dial(e.vp.Host, l.Addr(), cfg)
		if err != nil {
			failed++
			return
		}
		if c.UsedResumption() {
			resumed++
		}
		c.Close()
	})
	l.Close()
	if failed > 0 || resumed == 0 {
		return fmt.Errorf("quic probe: %d failed, %d resumed", failed, resumed)
	}
	return nil
}

// dohHeaders are the request headers the DoH and DoH3 clients send.
func dohHeaders(name string, bodyLen int) [][2]string {
	return [][2]string{
		{":method", "POST"}, {":scheme", "https"}, {":authority", name},
		{":path", "/dns-query"}, {"accept", "application/dns-message"},
		{"content-type", "application/dns-message"},
		{"content-length", fmt.Sprint(bodyLen)}, {"user-agent", "repro-dnsperf/1.0"},
	}
}

func probeH3(e *probeEnv, names []string, ps map[string]probe) error {
	w := e.u.W
	rt := simnet.NewRuntime(w, e.rng)
	l, err := quic.Listen(e.server, 443, e.quicConfig(true, "h3"))
	if err != nil {
		return err
	}
	w.Go(func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			w.Go(func() {
				h3.ServeConn(rt, conn, func(_ []h3.Header, body []byte) ([]h3.Header, []byte) {
					return []h3.Header{{Name: ":status", Value: "200"}}, body
				})
			})
		}
	})
	wire := dnsmsg.NewQuery(1, names[0], dnsmsg.TypeA)
	body := wire.Encode()
	var headers []h3.Header
	for _, h := range dohHeaders(names[0], len(body)) {
		headers = append(headers, h3.Header{Name: h[0], Value: h[1]})
	}
	var client *h3.ClientConn
	w.Go(func() {
		var conn *quic.Conn
		conn, err = quic.Dial(e.vp.Host, l.Addr(), e.quicConfig(false, "h3"))
		if err == nil {
			client = h3.NewClientConn(rt, conn)
		}
	})
	w.Run()
	if err != nil {
		return fmt.Errorf("h3 probe: %w", err)
	}
	var failed int
	ps["h3.roundtrip"] = inWorld(w, 10, 1000, func(int) {
		if _, err := client.RoundTrip(headers, body); err != nil {
			failed++
		}
	})
	client.Close()
	l.Close()
	if failed > 0 {
		return fmt.Errorf("h3 probe: %d round trips failed", failed)
	}
	ps["h3.qpack"] = onHost(100, 20000, func(int) {
		if _, err := h3.DecodeFieldSection(h3.EncodeFieldSection(headers)); err != nil {
			failed++
		}
	})
	if failed > 0 {
		return errors.New("h3 probe: QPACK round trip failed")
	}
	return nil
}

// pipeStream is an in-memory tlsmini.Stream, so the h2 probe times
// framing and HPACK without a transport underneath.
type pipeStream struct {
	out, in *sim.Queue[[]byte]
}

func (p *pipeStream) Write(b []byte) error { p.out.Push(append([]byte(nil), b...)); return nil }
func (p *pipeStream) Read() ([]byte, bool) { return p.in.Pop() }
func (p *pipeStream) Close()               { p.out.Close() }

func probeH2(e *probeEnv, names []string, ps map[string]probe) error {
	w := e.u.W
	rt := simnet.NewRuntime(w, e.rng)
	ab, ba := sim.NewQueue[[]byte](w, "h2-ab"), sim.NewQueue[[]byte](w, "h2-ba")
	cs, ss := &pipeStream{out: ab, in: ba}, &pipeStream{out: ba, in: ab}
	w.Go(func() {
		h2.ServeConn(rt, ss, func(_ []h2.Header, body []byte) ([]h2.Header, []byte) {
			return []h2.Header{{Name: ":status", Value: "200"}}, body
		})
	})
	q := dnsmsg.NewQuery(1, names[0], dnsmsg.TypeA)
	body := q.Encode()
	var headers []h2.Header
	for _, h := range dohHeaders(names[0], len(body)) {
		headers = append(headers, h2.Header{Name: h[0], Value: h[1]})
	}
	var client *h2.ClientConn
	var err error
	w.Go(func() { client, err = h2.NewClientConn(rt, cs) })
	w.Run()
	if err != nil {
		return fmt.Errorf("h2 probe: %w", err)
	}
	var failed int
	ps["h2.roundtrip"] = inWorld(w, 10, 2000, func(int) {
		if _, err := client.RoundTrip(headers, body); err != nil {
			failed++
		}
	})
	client.Close()
	if failed > 0 {
		return fmt.Errorf("h2 probe: %d round trips failed", failed)
	}
	return nil
}

// tlsHandshake runs a client and a server Engine against each other,
// delivering each side's flight to the other until both are quiet, and
// reports whether the client resumed.
func tlsHandshake(ccfg, scfg tlsmini.Config) (bool, error) {
	client, server := tlsmini.NewEngine(ccfg), tlsmini.NewEngine(scfg)
	toServer, err := client.Start()
	if err != nil {
		return false, err
	}
	deliver := func(e *tlsmini.Engine, msgs []tlsmini.Message) ([]tlsmini.Message, error) {
		var out []tlsmini.Message
		for _, m := range msgs {
			resp, err := e.Handle(m)
			if err != nil {
				return nil, err
			}
			out = append(out, resp...)
		}
		return out, nil
	}
	for len(toServer) > 0 {
		toClient, err := deliver(server, toServer)
		if err != nil {
			return false, err
		}
		if toServer, err = deliver(client, toClient); err != nil {
			return false, err
		}
	}
	if !client.Complete() || !server.Complete() {
		return false, errors.New("tlsmini probe: handshake did not complete")
	}
	return client.UsedResumption(), nil
}

func probeTLS(e *probeEnv, names []string, ps map[string]probe) error {
	now := func() time.Duration { return 0 }
	scfg := tlsmini.Config{ALPN: []string{"doq"}, Identity: e.ident, TicketStore: tlsmini.NewTicketStore(), Rand: e.rng, Now: now}
	ccfg := tlsmini.Config{IsClient: true, ServerName: "probe.example", ALPN: []string{"doq"}, Rand: e.rng, Now: now}
	var failed, resumed int
	handshake := func(cfg tlsmini.Config) {
		ok, err := tlsHandshake(cfg, scfg)
		if err != nil {
			failed++
		}
		if ok {
			resumed++
		}
	}
	ps["tlsmini.full_handshake"] = onHost(5, 300, func(int) {
		cfg := ccfg
		cfg.SessionCache = tlsmini.NewSessionCache()
		handshake(cfg)
	})
	if resumed > 0 {
		return errors.New("tlsmini probe: a full handshake resumed")
	}
	ccfg.SessionCache = tlsmini.NewSessionCache()
	ps["tlsmini.resumed_handshake"] = onHost(5, 1000, func(int) { handshake(ccfg) })
	if failed > 0 || resumed < 1000 {
		return fmt.Errorf("tlsmini probe: %d failed, %d of 1005 resumed", failed, resumed)
	}

	var aead tlsmini.AEADCache
	secret := make([]byte, 32)
	e.rng.Read(secret)
	record := responseWire(1, names[0])
	aad := []byte{23, 3, 3, 0, byte(len(record))}
	ps["tlsmini.seal"] = onHost(100, 50000, func(i int) { aead.Seal(secret, uint64(i), record, aad) })
	return nil
}

func probeDNSMsg(_ *probeEnv, names []string, ps map[string]probe) error {
	msgs := make([]dnsmsg.Message, len(names))
	wires := make([][]byte, len(names))
	for i, name := range names {
		q := dnsmsg.NewQuery(uint16(i+1), name, dnsmsg.TypeA)
		msgs[i] = dnsmsg.Reply(q)
		msgs[i].AnswerA(netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), 300)
		wires[i] = msgs[i].Encode()
	}
	buf := make([]byte, 0, 512)
	ps["dnsmsg.encode"] = onHost(1000, 50000, func(i int) { buf = msgs[i%len(msgs)].AppendEncode(buf[:0]) })
	var failed int
	ps["dnsmsg.decode"] = onHost(1000, 50000, func(i int) {
		if _, err := dnsmsg.Decode(wires[i%len(wires)]); err != nil {
			failed++
		}
	})
	if failed > 0 {
		return errors.New("dnsmsg probe: decode failed")
	}
	return nil
}

func probeCache(e *probeEnv, _ []string, ps map[string]probe) error {
	// proxy-zipf's stream and stub-cache capacity.
	wl := measure.NewZipfWorkload(rand.New(rand.NewSource(e.rng.Int63())), 1.2, 1000)
	keys := make([]cache.Key, 50000)
	for i := range keys {
		name, _ := wl.Next()
		keys[i] = cache.Key{Name: name, Type: dnsmsg.TypeA}
	}
	c := cache.New(func() time.Duration { return 0 }, 200)
	addr := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	for _, k := range keys {
		if _, ok := c.Lookup(k); !ok {
			c.Put(k, addr, 300*time.Second)
		}
	}
	hitRatio := c.Stats().HitRatio()
	lookup := onHost(0, len(keys), func(i int) { c.Lookup(keys[i]) })
	lookup.Value = hitRatio
	ps["cache.lookup"] = lookup
	ps["cache.put"] = onHost(0, len(keys), func(i int) { c.Put(keys[i], addr, 300*time.Second) })
	return nil
}

// probeDox times connect plus query against the population's resolver,
// resuming sessions the way the single-query campaign does.
func probeDox(e *probeEnv, proto dox.Protocol, names []string, ps map[string]probe) error {
	sessions := tlsmini.NewSessionCache()
	store := dox.NewQUICSessionStore()
	var failed int
	p := inWorld(e.u.W, 2, 100, func(i int) {
		o := dox.Options{Backend: e.vp.Backend, Resolver: e.res.Addr, ServerName: e.res.Name,
			DoQPort: e.res.DoQPort, SessionCache: sessions}
		store.Apply(e.res.Addr, &o)
		c, err := dox.Connect(proto, o)
		if err != nil {
			failed++
			return
		}
		q := dnsmsg.NewQuery(uint16(i+1), names[i%len(names)], dnsmsg.TypeA)
		if _, err := c.Query(&q); err != nil {
			failed++
		}
		store.Remember(e.res.Addr, c)
		c.Close()
	})
	p.Failed = failed
	ps["dox.exchange."+proto.String()] = p
	return nil
}

func probeBrowser(e *probeEnv, _ []string, ps map[string]probe) error {
	proxy, err := dnsproxy.New(e.vp.Backend, dnsproxy.Config{
		Upstream:   dox.DoUDP,
		Options:    dox.Options{Resolver: e.res.Addr, ServerName: e.res.Name, DoQPort: e.res.DoQPort},
		ListenPort: 10000,
	})
	if err != nil {
		return err
	}
	eng := &browser.Engine{Backend: e.vp.Backend, Proxy: proxy.Addr()}
	top := pages.Top10()
	var failed int
	p := inWorld(e.u.W, len(top), 20*len(top), func(i int) {
		if r := eng.Load(top[i%len(top)]); r.Err != nil {
			failed++
		}
	})
	p.Failed = failed
	ps["browser.load"] = p
	proxy.Close()
	return nil
}

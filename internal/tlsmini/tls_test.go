package tlsmini

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// pipeStream is an in-memory Stream for tests.
type pipeStream struct {
	out *sim.Queue[[]byte]
	in  *sim.Queue[[]byte]
}

func (p *pipeStream) Write(b []byte) error {
	p.out.Push(append([]byte(nil), b...))
	return nil
}
func (p *pipeStream) Read() ([]byte, bool) { return p.in.Pop() }
func (p *pipeStream) Close()               { p.out.Close() }

func pipe(w *sim.World) (a, b Stream) {
	q1 := sim.NewQueue[[]byte](w, "pipe-ab")
	q2 := sim.NewQueue[[]byte](w, "pipe-ba")
	return &pipeStream{out: q1, in: q2}, &pipeStream{out: q2, in: q1}
}

type testEnv struct {
	w        *sim.World
	identity *Identity
	cache    *SessionCache
	store    *TicketStore
	rng      *rand.Rand
}

func newEnv() *testEnv {
	w := sim.NewWorld(1)
	rng := rand.New(rand.NewSource(99))
	return &testEnv{
		w:        w,
		identity: GenerateIdentity(rng, "resolver.example", 1200),
		cache:    NewSessionCache(),
		store:    NewTicketStore(),
		rng:      rng,
	}
}

func (env *testEnv) clientCfg() Config {
	return Config{
		IsClient:     true,
		ServerName:   "resolver.example",
		ALPN:         []string{"doq"},
		SessionCache: env.cache,
		Rand:         env.rng,
		Now:          env.w.Now,
	}
}

func (env *testEnv) serverCfg() Config {
	return Config{
		ALPN:        []string{"doq", "dot"},
		Identity:    env.identity,
		TicketStore: env.store,
		Rand:        env.rng,
		Now:         env.w.Now,
	}
}

// runHandshake performs one client+server handshake over a pipe and then
// an echo exchange; it returns the client Conn for inspection.
func runHandshake(t *testing.T, env *testEnv, ccfg, scfg Config) *Conn {
	t.Helper()
	cs, ss := pipe(env.w)
	client := NewConn(cs, ccfg)
	server := NewConn(ss, scfg)
	var clientErr, serverErr error
	env.w.Go(func() {
		serverErr = server.Handshake()
		if serverErr != nil {
			return
		}
		if msg, ok := server.Read(); ok {
			server.Write(append([]byte("echo:"), msg...))
		}
	})
	env.w.Go(func() {
		clientErr = client.Handshake()
		if clientErr != nil {
			return
		}
		client.Write([]byte("hello"))
		got, ok := client.Read()
		if !ok || !bytes.Equal(got, []byte("echo:hello")) {
			clientErr = errEcho
		}
	})
	env.w.Run()
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	if clientErr != nil {
		t.Fatalf("client: %v", clientErr)
	}
	return client
}

var errEcho = errorString("echo mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFullHandshakeAndEcho(t *testing.T) {
	env := newEnv()
	c := runHandshake(t, env, env.clientCfg(), env.serverCfg())
	e := c.Engine()
	if e.NegotiatedVersion() != VersionTLS13 {
		t.Errorf("version = %v", e.NegotiatedVersion())
	}
	if e.NegotiatedALPN() != "doq" {
		t.Errorf("alpn = %q", e.NegotiatedALPN())
	}
	if e.UsedResumption() {
		t.Error("first handshake used resumption")
	}
	if e.PeerName() != "resolver.example" {
		t.Errorf("peer = %q", e.PeerName())
	}
}

func TestSessionResumption(t *testing.T) {
	env := newEnv()
	runHandshake(t, env, env.clientCfg(), env.serverCfg())
	if env.cache.Len() != 1 {
		t.Fatalf("cache has %d sessions after first handshake", env.cache.Len())
	}
	c := runHandshake(t, env, env.clientCfg(), env.serverCfg())
	if !c.Engine().UsedResumption() {
		t.Error("second handshake did not resume")
	}
}

func TestTicketExpiryPreventsResumption(t *testing.T) {
	env := newEnv()
	runHandshake(t, env, env.clientCfg(), env.serverCfg())
	// Advance virtual time past the 7-day ticket lifetime.
	env.w.Go(func() { env.w.Sleep(8 * 24 * time.Hour) })
	env.w.Run()
	c := runHandshake(t, env, env.clientCfg(), env.serverCfg())
	if c.Engine().UsedResumption() {
		t.Error("resumed with an expired ticket")
	}
}

func TestZeroRTTAcceptedWhenEnabled(t *testing.T) {
	env := newEnv()
	scfg := env.serverCfg()
	scfg.AcceptEarlyData = true
	runHandshake(t, env, env.clientCfg(), scfg)

	ccfg := env.clientCfg()
	ccfg.OfferEarlyData = true
	cs, ss := pipe(env.w)
	client := NewConn(cs, ccfg)
	server := NewConn(ss, scfg)
	var gotEarly []byte
	env.w.Go(func() {
		if err := server.Handshake(); err != nil {
			t.Errorf("server: %v", err)
			return
		}
		gotEarly, _ = server.Read()
	})
	env.w.Go(func() {
		// 0-RTT: write before Handshake completes.
		if flight, err := client.engine.Start(); err != nil || len(flight) == 0 {
			t.Errorf("start: %v", err)
			return
		} else if err := client.writeFlight(flight); err != nil {
			t.Errorf("write flight: %v", err)
			return
		}
		if !client.engine.EarlyDataOffered() {
			t.Error("client did not offer early data")
			return
		}
		if err := client.Write([]byte("early query")); err != nil {
			t.Errorf("early write: %v", err)
			return
		}
		// Complete the handshake so the server can verify our Finished.
		if err := client.Handshake(); err != nil {
			t.Errorf("client handshake: %v", err)
		}
	})
	env.w.Run()
	if !bytes.Equal(gotEarly, []byte("early query")) {
		t.Errorf("server got early data %q", gotEarly)
	}
	if !server.Engine().EarlyDataAccepted() {
		t.Error("server did not accept early data")
	}
}

func TestZeroRTTRejectedByDefault(t *testing.T) {
	env := newEnv()
	runHandshake(t, env, env.clientCfg(), env.serverCfg())
	ccfg := env.clientCfg()
	ccfg.OfferEarlyData = true
	c := runHandshake(t, env, ccfg, env.serverCfg())
	// The default server (like all public resolvers in the paper) issues
	// tickets without the early-data permission, so the client never even
	// offers 0-RTT.
	if c.Engine().EarlyDataAccepted() {
		t.Error("server accepted 0-RTT despite AcceptEarlyData=false")
	}
}

func TestTLS12ModeNegotiation(t *testing.T) {
	env := newEnv()
	scfg := env.serverCfg()
	scfg.Version = VersionTLS12
	c := runHandshake(t, env, env.clientCfg(), scfg)
	if got := c.Engine().NegotiatedVersion(); got != VersionTLS12 {
		t.Errorf("version = %v, want TLS 1.2", got)
	}
	if c.Engine().UsedResumption() {
		t.Error("TLS 1.2 mode resumed")
	}
}

func TestALPNMismatchFails(t *testing.T) {
	env := newEnv()
	ccfg := env.clientCfg()
	ccfg.ALPN = []string{"h2"}
	scfg := env.serverCfg() // supports doq, dot only
	cs, ss := pipe(env.w)
	client := NewConn(cs, ccfg)
	server := NewConn(ss, scfg)
	var serverErr error
	env.w.Go(func() { serverErr = server.Handshake() })
	env.w.Go(func() { client.Handshake() })
	env.w.Run()
	if serverErr == nil {
		t.Error("server accepted handshake without ALPN overlap")
	}
}

func TestMessageSizesRealistic(t *testing.T) {
	env := newEnv()
	eng := NewEngine(env.clientCfg())
	flight, err := eng.Start()
	if err != nil {
		t.Fatal(err)
	}
	ch := EncodeMessage(flight[0])
	// Real ClientHellos are ~250-350 bytes.
	if len(ch) < 180 || len(ch) > 420 {
		t.Errorf("ClientHello size = %d, want 180..420", len(ch))
	}
}

func TestEncodeDecodeAllMessageTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id := GenerateIdentity(rng, "x", 900)
	msgs := []Message{
		{Type: TypeClientHello, Body: &ClientHello{ServerName: "a.b", ALPN: []string{"doq", "h2"}, SupportedVersions: []Version{VersionTLS13}, PSKTicket: []byte("tick"), EarlyData: true}},
		{Type: TypeServerHello, Body: &ServerHello{Version: VersionTLS13, PSKAccepted: true}},
		{Type: TypeEncryptedExtensions, Body: &EncryptedExtensions{ALPN: "doq", EarlyDataAccepted: true}},
		{Type: TypeCertificate, Body: &Certificate{Name: "x", PublicKey: id.PublicKey, Chain: id.Chain}},
		{Type: TypeCertificateVerify, Body: &CertificateVerify{Signature: make([]byte, 64)}},
		{Type: TypeFinished, Body: &Finished{}},
		{Type: TypeNewSessionTicket, Body: &NewSessionTicket{LifetimeSecs: 604800, Ticket: []byte("ticket-bytes")}},
		{Type: TypeClientKeyExchange, Body: &ClientKeyExchange{}},
		{Type: TypeServerHelloDone, Body: &ServerHelloDone{}},
	}
	for _, m := range msgs {
		enc := EncodeMessage(m)
		got, n, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%d: %v", m.Type, err)
		}
		if n != len(enc) {
			t.Errorf("%d: consumed %d of %d", m.Type, n, len(enc))
		}
		if got.Type != m.Type {
			t.Errorf("type = %d, want %d", got.Type, m.Type)
		}
	}
}

func TestDecodeTruncatedMessages(t *testing.T) {
	m := Message{Type: TypeServerHello, Body: &ServerHello{Version: VersionTLS13}}
	enc := EncodeMessage(m)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeMessage(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestHKDFDeterministic(t *testing.T) {
	a := hkdfExpand(hkdfExtract([]byte("salt"), []byte("ikm")), "info", 32)
	b := hkdfExpand(hkdfExtract([]byte("salt"), []byte("ikm")), "info", 32)
	if !bytes.Equal(a, b) {
		t.Error("HKDF not deterministic")
	}
	c := hkdfExpand(hkdfExtract([]byte("salt"), []byte("ikm")), "other", 32)
	if bytes.Equal(a, c) {
		t.Error("different labels produced identical output")
	}
	if len(hkdfExpand(a, "x", 100)) != 100 {
		t.Error("expand length mismatch")
	}
}

func TestAEADRoundTripAndTamper(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	ct := aeadSeal(key, iv, 1, []byte("secret"), []byte("aad"))
	pt, err := aeadOpen(key, iv, 1, ct, []byte("aad"))
	if err != nil || !bytes.Equal(pt, []byte("secret")) {
		t.Fatalf("round trip failed: %v", err)
	}
	if _, err := aeadOpen(key, iv, 2, ct, []byte("aad")); err == nil {
		t.Error("wrong sequence accepted")
	}
	ct[0] ^= 1
	if _, err := aeadOpen(key, iv, 1, ct, []byte("aad")); err == nil {
		t.Error("tampered ciphertext accepted")
	}
}

// TestAEADCacheSlotPerSecret pins the cache's slot per epoch: sealing
// alternately under two secrets derives each key exactly once, a fifth
// live secret replaces the oldest slot, and every record matches the
// uncached seal byte for byte.
func TestAEADCacheSlotPerSecret(t *testing.T) {
	secret := func(b byte) []byte { return bytes.Repeat([]byte{b}, hashLen) }
	var c AEADCache
	seal := func(s []byte, seq uint64) []byte {
		t.Helper()
		got := c.Seal(s, seq, []byte("record"), []byte("aad"))
		key, iv := trafficKeys(s)
		if want := aeadSeal(key, iv, seq, []byte("record"), []byte("aad")); !bytes.Equal(got, want) {
			t.Fatalf("cached seal under %x differs from uncached", s[:1])
		}
		return got
	}
	a, b := secret(1), secret(2)
	for i := uint64(0); i < 10; i++ {
		if i%2 == 0 {
			seal(a, i)
		} else {
			seal(b, i)
		}
	}
	if c.derivations != 2 {
		t.Fatalf("alternating two secrets derived %d times, want 2", c.derivations)
	}
	for s := byte(3); s <= 5; s++ {
		seal(secret(s), 0) // 3 and 4 fill the slots; 5 replaces a
	}
	seal(b, 0)
	if c.derivations != 5 {
		t.Fatalf("after five secrets: %d derivations, want 5", c.derivations)
	}
	seal(a, 0)
	if c.derivations != 6 {
		t.Fatalf("re-deriving the replaced secret: %d derivations, want 6", c.derivations)
	}

	// In-place open: the plaintext lands over its own ciphertext.
	rec := seal(b, 7)
	pt, err := c.OpenAppend(rec[:0], b, 7, rec, []byte("aad"))
	if err != nil || string(pt) != "record" || &pt[0] != &rec[0] {
		t.Fatalf("in-place open: %q, %v", pt, err)
	}
}

func TestIdentityChainSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	id := GenerateIdentity(rng, "r.example", 3000)
	if len(id.Chain) != 3000 {
		t.Errorf("chain = %d bytes, want 3000", len(id.Chain))
	}
	tiny := GenerateIdentity(rng, "r.example", 1)
	if len(tiny.Chain) < 100 {
		t.Errorf("minimal chain = %d bytes, implausibly small", len(tiny.Chain))
	}
}

func TestSessionCacheExpiry(t *testing.T) {
	c := NewSessionCache()
	c.Put(&Session{ServerName: "a", IssuedAt: 0, Lifetime: time.Hour})
	if c.Get("a", 30*time.Minute) == nil {
		t.Error("session missing before expiry")
	}
	if c.Get("a", 2*time.Hour) != nil {
		t.Error("session returned after expiry")
	}
	if c.Get("b", 0) != nil {
		t.Error("unknown name returned a session")
	}
}

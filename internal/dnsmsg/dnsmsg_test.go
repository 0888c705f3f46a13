package dnsmsg

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "google.com", TypeA)
	b := q.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "google.com" || got.Questions[0].Type != TypeA {
		t.Errorf("question mismatch: %+v", got.Questions)
	}
	if got.UDPSize != 1232 {
		t.Errorf("UDPSize = %d, want 1232 (EDNS0 OPT)", got.UDPSize)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "example.org", TypeA)
	r := Reply(q)
	r.AnswerA(netip.MustParseAddr("93.184.216.34"), 300)
	b := r.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.RecursionAvailable {
		t.Error("response bits not set")
	}
	addr, ok := got.FirstA()
	if !ok || addr != netip.MustParseAddr("93.184.216.34") {
		t.Errorf("FirstA = %v, %v", addr, ok)
	}
	if got.Answers[0].Name != "example.org" || got.Answers[0].TTL != 300 {
		t.Errorf("answer = %+v", got.Answers[0])
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	q := NewQuery(1, "www.example.com", TypeA)
	r := Reply(q)
	r.AnswerA(netip.MustParseAddr("1.2.3.4"), 60)
	b := r.Encode()
	// The answer's owner name must be a 2-byte pointer, not a repeat of
	// the 17-byte name encoding.
	count := strings.Count(string(b), "example")
	if count != 1 {
		t.Errorf("name appears %d times in encoding, want 1 (compression)", count)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "www.example.com" {
		t.Errorf("decompressed name = %q", got.Answers[0].Name)
	}
}

func TestCNAMERoundTrip(t *testing.T) {
	q := NewQuery(2, "google.com", TypeA)
	r := Reply(q)
	r.Answers = append(r.Answers, Resource{
		Name: "google.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
		Target: "www.google.com",
	})
	got, err := Decode(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Target != "www.google.com" {
		t.Errorf("CNAME target = %q", got.Answers[0].Target)
	}
}

func TestRCodeRoundTrip(t *testing.T) {
	for _, rc := range []RCode{RCodeSuccess, RCodeFormErr, RCodeServFail, RCodeNXDomain, RCodeRefused} {
		m := NewQuery(1, "x.test", TypeA)
		m.Response = true
		m.RCode = rc
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.RCode != rc {
			t.Errorf("rcode = %d, want %d", got.RCode, rc)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x12},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, // claims a question, no data
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode succeeded on truncated input", i)
		}
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// Header + a question whose name is a pointer to itself.
	b := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xc0, 12, // pointer to offset 12 (itself)
		0, 1, 0, 1,
	}
	if _, err := Decode(b); err == nil {
		t.Error("self-referential compression pointer accepted")
	}
}

func TestRootName(t *testing.T) {
	q := Message{ID: 1, Questions: []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}}
	got, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestQuerySizeRealistic(t *testing.T) {
	// An A query for google.com with EDNS0 is 39 bytes on the wire; the
	// paper's Table 1 reports 59 B median DoUDP query *IP payload* (DNS
	// payload + 8 B UDP header + padding-free EDNS). Sanity-check we are
	// in that neighbourhood.
	q := NewQuery(1, "google.com", TypeA)
	n := len(q.Encode())
	if n < 28 || n > 64 {
		t.Errorf("query size = %d, want 28..64", n)
	}
}

// randName generates a syntactically valid DNS name from the fuzz source.
func randName(r *rand.Rand) string {
	labels := 1 + r.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".")
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	f := func(id uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Message{
			ID:               id,
			RecursionDesired: r.Intn(2) == 0,
			Response:         r.Intn(2) == 0,
			RCode:            RCode(r.Intn(6)),
		}
		nq := 1 + r.Intn(3)
		for i := 0; i < nq; i++ {
			m.Questions = append(m.Questions, Question{Name: randName(r), Type: TypeA, Class: ClassIN})
		}
		na := r.Intn(4)
		for i := 0; i < na; i++ {
			addr := netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			m.Answers = append(m.Answers, Resource{
				Name: m.Questions[0].Name, Type: TypeA, Class: ClassIN,
				TTL: uint32(r.Intn(3600)), Addr: addr,
			})
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.ID != m.ID || got.Response != m.Response || got.RCode != m.RCode {
			return false
		}
		if !reflect.DeepEqual(got.Questions, m.Questions) {
			return false
		}
		if len(got.Answers) != len(m.Answers) {
			return false
		}
		for i := range got.Answers {
			if got.Answers[i].Addr != m.Answers[i].Addr || got.Answers[i].Name != m.Answers[i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("Decode panicked on %x: %v", b, p)
			}
		}()
		Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// overflowMessage carries 31 distinct name suffixes, more than the
// encoder's 24-entry inline table, and compresses later names against
// suffixes recorded past that table.
func overflowMessage() Message {
	m := Message{ID: 0xbeef, Response: true, RecursionDesired: true, RecursionAvailable: true, UDPSize: 1232,
		Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}}}
	for i := 0; i < 12; i++ {
		m.Answers = append(m.Answers, Resource{
			Name: fmt.Sprintf("h%d.z%d.example.org", i, i), Type: TypeA, Class: ClassIN, TTL: uint32(60 + i),
			Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
		})
	}
	m.Answers = append(m.Answers,
		Resource{Name: "h11.z11.example.org", Type: TypeCNAME, Class: ClassIN, TTL: 30, Target: "cdn.z10.example.org"},
		Resource{Name: "cdn.z10.example.org", Type: TypeAAAA, Class: ClassIN, TTL: 30, Addr: netip.MustParseAddr("2001:db8::1")})
	m.Authorities = append(m.Authorities, Resource{Name: "z11.example.org", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns.z11.example.org"})
	m.Additionals = append(m.Additionals, Resource{Name: "ns.z11.example.org", Type: TypeTXT, Class: ClassIN, TTL: 5, Data: []byte("\x02ok")})
	return m
}

// TestEncodeOverflowGolden pins the wire bytes of a message whose
// compression table outgrows the encoder's inline array: pointers such
// as 0xc120 and 0xc10c target suffixes recorded past the 24th entry.
func TestEncodeOverflowGolden(t *testing.T) {
	const golden = "beef81800001000e0001000203777777076578616d706c6503636f6d00000100" +
		"01026830027a30076578616d706c65036f726700000100010000003c0004c000" +
		"0200026831027a31c027000100010000003d0004c0000201026832027a32c027" +
		"000100010000003e0004c0000202026833027a33c027000100010000003f0004" +
		"c0000203026834027a34c02700010001000000400004c0000204026835027a35" +
		"c02700010001000000410004c0000205026836027a36c0270001000100000042" +
		"0004c0000206026837027a37c02700010001000000430004c000020702683802" +
		"7a38c02700010001000000440004c0000208026839027a39c027000100010000" +
		"00450004c000020903683130037a3130c02700010001000000460004c000020a" +
		"03683131037a3131c02700010001000000470004c000020bc120000500010000" +
		"001e00060363646ec10cc144001c00010000001e001020010db8000000000000" +
		"000000000001c12400020001000151800005026e73c124c17200100001000000" +
		"050003026f6b00002904d0000000000000"
	m := overflowMessage()
	if got := hex.EncodeToString(m.Encode()); got != golden {
		t.Fatalf("encoding changed:\ngot  %s\nwant %s", got, golden)
	}
	// Appending after a prefix must produce the same message bytes:
	// compression offsets are message-relative.
	prefix := []byte{0xaa, 0xbb}
	if got := hex.EncodeToString(m.AppendEncode(prefix)[2:]); got != golden {
		t.Fatalf("encoding after a prefix changed:\ngot  %s\nwant %s", got, golden)
	}
}

// typicalAnswer is the response shape the stub-proxy cycle carries: one
// question, one A answer, EDNS0.
func typicalAnswer() Message {
	q := NewQuery(0x4242, "www.example.com", TypeA)
	r := Reply(q)
	r.AnswerA(netip.AddrFrom4([4]byte{192, 0, 2, 7}), 300)
	return r
}

func TestAppendEncodeZeroAlloc(t *testing.T) {
	for _, m := range []Message{typicalAnswer(), NewQuery(1, "google.com", TypeA)} {
		buf := m.AppendEncode(nil)
		if n := testing.AllocsPerRun(200, func() { buf = m.AppendEncode(buf[:0]) }); n != 0 {
			t.Errorf("AppendEncode into a reused buffer: %v allocs, want 0", n)
		}
	}
}

func TestUnpackReuseAllocs(t *testing.T) {
	r := typicalAnswer()
	wire := r.Encode()
	var m Message
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	// The one allocation is the question-name string; the answer's
	// owner name is a compression pointer to it and shares the string.
	if n := testing.AllocsPerRun(200, func() {
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Unpack into a reused Message: %v allocs, want <= 1", n)
	}
	if m.Answers[0].Name != "www.example.com" || unsafe.StringData(m.Answers[0].Name) != unsafe.StringData(m.Questions[0].Name) {
		t.Errorf("answer name %q does not share the question's string", m.Answers[0].Name)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Decode(wire); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Decode of a typical answer: %v allocs, want <= 2", n)
	}
}

// TestEmptySectionsDecodeNil pins that a section without records decodes
// as nil, not as an empty slice — also when the Message is reused and
// its slices had capacity — so decoded messages stay reflect.DeepEqual
// to constructed ones.
func TestEmptySectionsDecodeNil(t *testing.T) {
	full := overflowMessage()
	var reused Message
	if err := reused.Unpack(full.Encode()); err != nil {
		t.Fatal(err)
	}
	// Zero questions and answers; the lone additional is the OPT record,
	// which becomes UDPSize rather than an entry.
	bare := Message{ID: 9, Response: true, UDPSize: 512}
	wire := bare.Encode()
	fresh, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := reused.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Message{"Decode": fresh, "Unpack": &reused} {
		if m.Questions != nil || m.Answers != nil || m.Authorities != nil || m.Additionals != nil {
			t.Errorf("%s: empty sections not nil: %+v", name, m)
		}
		if !reflect.DeepEqual(*m, bare) {
			t.Errorf("%s: got %+v, want %+v", name, *m, bare)
		}
	}
}

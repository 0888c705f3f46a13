package dnsmsg

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// nameRoundTrips reports whether a decoded name survives re-encoding
// unchanged. The decoder joins label bytes with '.' separators, so a
// wire label that itself contains a dot (legal on the wire, absurd in
// practice) or is empty decodes into a string the encoder would split
// differently; those names are excluded from the round-trip property
// rather than from Decode.
func nameRoundTrips(name string) bool {
	if name == "." {
		return true
	}
	if strings.HasSuffix(name, ".") {
		return false
	}
	for _, l := range strings.Split(name, ".") {
		if l == "" || len(l) > 63 {
			return false
		}
	}
	return true
}

func resourceRoundTrips(r *Resource) bool {
	if !nameRoundTrips(r.Name) {
		return false
	}
	switch r.Type {
	case TypeA:
		// A malformed rdata length leaves Addr invalid; the encoder
		// would emit 16 zero bytes for it, which is not the input.
		return r.Addr.Is4()
	case TypeAAAA:
		return r.Addr.IsValid()
	case TypeCNAME, TypeNS:
		return nameRoundTrips(r.Target)
	}
	return true
}

// FuzzDecode checks four properties on arbitrary wire input: Decode
// never panics (compression loops and truncations must surface as
// errors), Unpack into a Message that already holds another decoded
// message agrees with Decode (reuse leaks no stale field), any message
// Decode accepts re-encodes to wire the decoder accepts again with
// identical field content, and the encoding is a fixed point
// (encode∘decode∘encode == encode), so compression cannot oscillate.
func FuzzDecode(f *testing.F) {
	// Well-formed messages exercising each encoder path.
	q := NewQuery(0x1234, "dns.example.com", TypeA)
	f.Add(q.Encode())
	r := Reply(q)
	r.AnswerA(netip.AddrFrom4([4]byte{192, 0, 2, 1}), 300)
	r.Answers = append(r.Answers, Resource{
		Name: "dns.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
		Target: "cdn.example.com",
	})
	r.Authorities = append(r.Authorities, Resource{
		Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 86400,
		Target: "ns1.example.com",
	})
	r.Additionals = append(r.Additionals, Resource{
		Name: "ns1.example.com", Type: TypeTXT, Class: ClassIN, TTL: 30,
		Data: []byte("\x04text"),
	})
	f.Add(r.Encode())
	aaaa := NewQuery(7, ".", TypeAAAA)
	f.Add(aaaa.Encode())
	// Hostile inputs: truncated header, and a compression pointer at the
	// first question name pointing into the header.
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{
		0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, // header, qdcount=1
		0xc0, 0x02, // name: pointer to offset 2 (header bytes)
		0, 1, 0, 1, // type A, class IN
	})

	// dirtyWire fills every field reuse could leak: records in all three
	// sections, opaque Data, CNAME/NS targets, EDNS0 and header bits.
	dirtyWire := r.Encode()

	f.Fuzz(func(t *testing.T, b []byte) {
		m1, err := Decode(b)
		var dirty Message
		if derr := dirty.Unpack(dirtyWire); derr != nil {
			t.Fatal(derr)
		}
		uerr := dirty.Unpack(b)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("Decode error %v, Unpack error %v\ninput: %x", err, uerr, b)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*m1, dirty) {
			t.Fatalf("Unpack into a used Message differs from Decode:\ndecode: %+v\nunpack: %+v", *m1, dirty)
		}
		for i := range m1.Questions {
			if !nameRoundTrips(m1.Questions[i].Name) {
				return
			}
		}
		for _, sec := range [][]Resource{m1.Answers, m1.Authorities, m1.Additionals} {
			for i := range sec {
				if !resourceRoundTrips(&sec[i]) {
					return
				}
			}
		}
		wire := m1.AppendEncode(nil)
		m2, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v\ninput: %x\nwire:  %x", err, b, wire)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("round trip changed the message:\nbefore: %+v\nafter:  %+v", m1, m2)
		}
		wire2 := m2.AppendEncode(nil)
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %x\nsecond: %x", wire, wire2)
		}
	})
}

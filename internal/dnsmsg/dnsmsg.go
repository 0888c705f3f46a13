// Package dnsmsg implements the DNS wire format (RFC 1035) with EDNS0
// (RFC 6891): message header, questions, resource records for the types
// the study uses, and domain-name compression on encode and decode.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a resource record type.
type Type uint16

// Record types used by the study.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
)

func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a resource record class. Only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes.
const (
	RCodeSuccess  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// Question is a query name/type/class triple.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// Resource is a resource record.
type Resource struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	// Data holds the record payload: for A/AAAA the address bytes, for
	// CNAME/NS an encoded name is produced from Target, otherwise raw.
	Data []byte
	// Addr is used for A and AAAA records.
	Addr netip.Addr
	// Target is used for CNAME and NS records.
	Target string
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	OpCode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions   []Question
	Answers     []Resource
	Authorities []Resource
	Additionals []Resource

	// EDNS0 reflects an OPT pseudo-record in Additionals. When UDPSize is
	// non-zero an OPT record is appended on encode.
	UDPSize uint16
}

// NewQuery returns a recursive query for (name, type) with the given ID
// and an EDNS0 OPT advertising a 1232-byte UDP payload, matching common
// stub resolver behaviour.
func NewQuery(id uint16, name string, t Type) Message {
	return Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: t, Class: ClassIN}},
		UDPSize:          1232,
	}
}

// Reply constructs a response skeleton for q (same ID and question,
// response and recursion-available bits set).
func Reply(q Message) Message {
	var r Message
	r.SetReply(&q)
	return r
}

// SetReply makes m the response skeleton Reply(*q) returns, reusing m's
// section slices: a long-lived scratch Message builds replies without
// allocating once its slices have grown.
func (m *Message) SetReply(q *Message) {
	*m = Message{
		ID:                 q.ID,
		Response:           true,
		RecursionDesired:   q.RecursionDesired,
		RecursionAvailable: true,
		Questions:          append(m.Questions[:0], q.Questions...),
		Answers:            m.Answers[:0],
		Authorities:        m.Authorities[:0],
		Additionals:        m.Additionals[:0],
		UDPSize:            q.UDPSize,
	}
}

var (
	errShortMessage = errors.New("dnsmsg: short message")
	errBadName      = errors.New("dnsmsg: malformed name")
	errLoop         = errors.New("dnsmsg: compression loop")
)

// Encode serializes the message to wire format.
func (m *Message) Encode() []byte {
	// One right-sized allocation beats letting append discover the
	// message size 16 bytes at a time.
	return m.AppendEncode(make([]byte, 0, 512))
}

// AppendEncode appends the wire encoding to dst and returns the extended
// slice, reusing dst's capacity (servers lease dst from a byte pool).
// It allocates only when dst must grow or a message carries more than
// 24 distinct name suffixes.
//
//simlint:hotpath
func (m *Message) AppendEncode(dst []byte) []byte {
	var e encoder
	e.buf = dst
	e.base = len(dst) // compression offsets are message-relative
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.OpCode&0xf) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xf)

	nAdds := len(m.Additionals)
	if m.UDPSize > 0 {
		nAdds++ // OPT pseudo-record appended below
	}

	e.u16(m.ID)
	e.u16(flags)
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(len(m.Answers)))
	e.u16(uint16(len(m.Authorities)))
	e.u16(uint16(nAdds))
	for i := range m.Questions {
		q := &m.Questions[i]
		e.name(q.Name)
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	for _, sec := range [3][]Resource{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			e.resource(&sec[i])
		}
	}
	if m.UDPSize > 0 {
		opt := Resource{Name: ".", Type: TypeOPT, Class: Class(m.UDPSize)}
		e.resource(&opt)
	}
	return e.buf
}

// nameOffset records where a name suffix was written, for compression.
// A small linear table beats a map here: messages carry a handful of
// names. The first 24 entries live in a fixed array inside the encoder,
// which stays on AppendEncode's stack frame because nothing in it points
// back into itself; later entries spill to a heap slice.
type nameOffset struct {
	suffix string
	off    int
}

type encoder struct {
	buf    []byte
	base   int // message start within buf
	nNames int // entries used in names
	names  [24]nameOffset
	spill  []nameOffset // entries past the first 24, in insertion order
}

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// name encodes a domain name with compression against previously written
// names. Suffixes are substrings of name, so recording them costs no
// allocation.
//
//simlint:hotpath
func (e *encoder) name(name string) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		e.buf = append(e.buf, 0)
		return
	}
	for i := 0; i < len(name); {
		suffix := name[i:]
		if off, ok := e.lookup(suffix); ok {
			e.u16(0xc000 | uint16(off))
			return
		}
		if off := len(e.buf) - e.base; off < 0x3fff {
			if e.nNames < len(e.names) {
				e.names[e.nNames] = nameOffset{suffix, off}
				e.nNames++
			} else {
				e.spill = append(e.spill, nameOffset{suffix, off})
			}
		}
		l := suffix
		if j := strings.IndexByte(suffix, '.'); j >= 0 {
			l = suffix[:j]
			i += j + 1
		} else {
			i = len(name)
		}
		if len(l) > 63 {
			l = l[:63]
		}
		e.buf = append(e.buf, byte(len(l)))
		e.buf = append(e.buf, l...)
	}
	e.buf = append(e.buf, 0)
}

// lookup returns the message offset of an already written suffix.
func (e *encoder) lookup(suffix string) (int, bool) {
	for _, n := range e.names[:e.nNames] {
		if n.suffix == suffix {
			return n.off, true
		}
	}
	for _, n := range e.spill {
		if n.suffix == suffix {
			return n.off, true
		}
	}
	return 0, false
}

func (e *encoder) resource(r *Resource) {
	e.name(r.Name)
	e.u16(uint16(r.Type))
	e.u16(uint16(r.Class))
	e.u32(r.TTL)
	lenAt := len(e.buf)
	e.u16(0) // patched below
	start := len(e.buf)
	switch r.Type {
	case TypeA, TypeAAAA:
		if r.Addr.Is4() {
			a := r.Addr.As4()
			e.buf = append(e.buf, a[:]...)
		} else {
			a := r.Addr.As16()
			e.buf = append(e.buf, a[:]...)
		}
	case TypeCNAME, TypeNS:
		e.name(r.Target)
	default:
		e.buf = append(e.buf, r.Data...)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(len(e.buf)-start))
}

// Decode parses a wire-format message into a new Message. The Message
// shares one allocation with inline backing arrays for one question and,
// when the header announces answers, one answer (a query does not pay
// for an unused answer slot), so a typical query or answer costs that
// allocation plus its name strings.
func Decode(b []byte) (*Message, error) {
	var m *Message
	if len(b) >= 8 && binary.BigEndian.Uint16(b[6:]) > 0 {
		a := new(struct {
			m  Message
			q  [1]Question
			an [1]Resource
		})
		a.m.Questions, a.m.Answers = a.q[:0], a.an[:0]
		m = &a.m
	} else {
		a := new(struct {
			m Message
			q [1]Question
		})
		a.m.Questions = a.q[:0]
		m = &a.m
	}
	if err := m.Unpack(b); err != nil {
		return nil, err
	}
	return m, nil
}

// Unpack decodes the wire-format message b into m, overwriting every
// field. Section slices reuse m's backing arrays, so unpacking into one
// long-lived Message allocates only the decoded name strings (and the
// Data of records with opaque payloads). A section that decodes no
// record is nil, as in a Message from Decode. Nothing in m aliases b.
// On error m holds a partial decode.
//
//simlint:hotpath
func (m *Message) Unpack(b []byte) error {
	d := decoder{buf: b}
	qs := m.Questions[:0]
	secs := [3][]Resource{m.Answers[:0], m.Authorities[:0], m.Additionals[:0]}
	*m = Message{}
	id, err := d.u16()
	if err != nil {
		return err
	}
	m.ID = id
	flags, err := d.u16()
	if err != nil {
		return err
	}
	m.Response = flags&(1<<15) != 0
	m.OpCode = uint8(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xf)

	var counts [4]uint16
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return err
		}
		t, err := d.u16()
		if err != nil {
			return err
		}
		c, err := d.u16()
		if err != nil {
			return err
		}
		q.Type, q.Class = Type(t), Class(c)
		qs = append(qs, q)
	}
	for si := range secs {
		for i := 0; i < int(counts[si+1]); i++ {
			r, err := d.resource()
			if err != nil {
				return err
			}
			if r.Type == TypeOPT {
				m.UDPSize = uint16(r.Class)
				continue
			}
			secs[si] = append(secs[si], r)
		}
	}
	m.Questions = orNil(qs)
	m.Answers, m.Authorities, m.Additionals = orNil(secs[0]), orNil(secs[1]), orNil(secs[2])
	return nil
}

// orNil returns nil for an empty section, so a reused Message compares
// equal (reflect.DeepEqual) to a freshly decoded one.
func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

type decoder struct {
	buf []byte
	off int
	// seen remembers the first few names decoded, by the offset their
	// encoding starts at, so a compression pointer to one of them (an
	// answer's 0xc00c pointing at the question) returns the same string
	// instead of building a second copy.
	seen  [4]seenName
	nSeen int
}

type seenName struct {
	off  int
	name string
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) name() (string, error) {
	s, next, err := d.nameAt(d.off)
	if err != nil {
		return "", err
	}
	d.off = next
	return s, nil
}

// nameAt decodes a possibly compressed name starting at off. It returns
// the name and the offset just past the name's first encoding. Labels
// accumulate in a stack buffer (names are at most 255 bytes on the wire)
// so the only allocation is the returned string, and none when the name
// is a pointer to a name already decoded; compression pointers are
// followed iteratively and must point strictly backwards, which bounds
// the walk without a depth counter.
func (d *decoder) nameAt(off int) (string, int, error) {
	var arr [256]byte
	b := arr[:0]
	start := off
	end := -1 // offset just past the first encoding, once known
	for {
		if off >= len(d.buf) {
			return "", 0, errShortMessage
		}
		l := int(d.buf[off])
		switch {
		case l == 0:
			off++
			if end < 0 {
				end = off
			}
			if len(b) == 0 {
				return ".", end, nil
			}
			s := string(b)
			d.remember(start, s)
			return s, end, nil
		case l&0xc0 == 0xc0:
			if off+2 > len(d.buf) {
				return "", 0, errShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(d.buf[off:]) & 0x3fff)
			if ptr >= off {
				return "", 0, errLoop
			}
			if end < 0 {
				end = off + 2
			}
			if len(b) == 0 {
				// Walking from ptr would rebuild the very name decoded
				// there before: the buffer has not changed since.
				if s, ok := d.recall(ptr); ok {
					return s, end, nil
				}
			}
			off = ptr
		case l&0xc0 != 0:
			return "", 0, errBadName
		default:
			off++
			if off+l > len(d.buf) {
				return "", 0, errShortMessage
			}
			if len(b) > 0 {
				b = append(b, '.')
			}
			if len(b)+l > len(arr) {
				return "", 0, errBadName
			}
			b = append(b, d.buf[off:off+l]...)
			off += l
		}
	}
}

// remember records the name decoded from off while the table has room.
func (d *decoder) remember(off int, name string) {
	if d.nSeen < len(d.seen) {
		d.seen[d.nSeen] = seenName{off, name}
		d.nSeen++
	}
}

// recall returns the name an earlier nameAt decoded from off.
func (d *decoder) recall(off int) (string, bool) {
	for _, n := range d.seen[:d.nSeen] {
		if n.off == off {
			return n.name, true
		}
	}
	return "", false
}

func (d *decoder) resource() (Resource, error) {
	var r Resource
	var err error
	if r.Name, err = d.name(); err != nil {
		return r, err
	}
	t, err := d.u16()
	if err != nil {
		return r, err
	}
	c, err := d.u16()
	if err != nil {
		return r, err
	}
	ttl, err := d.u32()
	if err != nil {
		return r, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return r, err
	}
	r.Type, r.Class, r.TTL = Type(t), Class(c), ttl
	if d.off+int(rdlen) > len(d.buf) {
		return r, errShortMessage
	}
	rdata := d.buf[d.off : d.off+int(rdlen)]
	switch r.Type {
	case TypeA:
		if len(rdata) == 4 {
			r.Addr = netip.AddrFrom4([4]byte(rdata))
		}
	case TypeAAAA:
		if len(rdata) == 16 {
			r.Addr = netip.AddrFrom16([16]byte(rdata))
		}
	case TypeCNAME, TypeNS:
		target, _, err := d.nameAt(d.off)
		if err != nil {
			return r, err
		}
		r.Target = target
	default:
		r.Data = append([]byte(nil), rdata...)
	}
	d.off += int(rdlen)
	return r, nil
}

// AnswerA appends an A record answering the first question.
func (m *Message) AnswerA(addr netip.Addr, ttl uint32) {
	if len(m.Questions) == 0 {
		return
	}
	m.Answers = append(m.Answers, Resource{
		Name: m.Questions[0].Name, Type: TypeA, Class: ClassIN, TTL: ttl, Addr: addr,
	})
}

// FirstA returns the first A answer's address.
func (m *Message) FirstA() (netip.Addr, bool) {
	for _, a := range m.Answers {
		if a.Type == TypeA && a.Addr.IsValid() {
			return a.Addr, true
		}
	}
	return netip.Addr{}, false
}

// String renders a compact dig-like summary, useful in examples.
func (m *Message) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, "%s id=%d rcode=%d", kind, m.ID, m.RCode)
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, " %s/%s", q.Name, q.Type)
	}
	for _, a := range m.Answers {
		switch a.Type {
		case TypeA, TypeAAAA:
			fmt.Fprintf(&sb, " -> %s", a.Addr)
		case TypeCNAME:
			fmt.Fprintf(&sb, " -> CNAME %s", a.Target)
		}
	}
	return sb.String()
}

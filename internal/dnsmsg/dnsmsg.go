// Package dnsmsg implements the DNS wire format (RFC 1035 subset):
// message header, questions, and resource records of the types the
// simulation needs (A, AAAA, CNAME, TXT, NS, SOA), including name
// compression on decode and a correct, loop-safe decompressor.
//
// It backs both the device's local stub resolver and the DNS-over-HTTPS
// endpoints (RFC 8484 carries exactly this wire format in HTTPS bodies),
// letting Panoptes observe which browsers ship the user's visited domains
// to Cloudflare or Google instead of the local resolver.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
)

// Type is a DNS RR type.
type Type uint16

// Resource record types used by the simulation.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
)

// String returns the conventional mnemonic.
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
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeSuccess  RCode = 0
	RCodeFormat   RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImpl  RCode = 4
	RCodeRefused  RCode = 5
)

// Header is the fixed 12-byte DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	OpCode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a DNS question.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// Resource is a decoded resource record.
type Resource struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	// Exactly one of the following is meaningful, per Type.
	A     net.IP   // TypeA (4 bytes) and TypeAAAA (16 bytes)
	Name2 string   // TypeCNAME, TypeNS: target name
	TXT   []string // TypeTXT
	SOA   *SOAData // TypeSOA
	Raw   []byte   // unknown types: undecoded RDATA, preserved for re-encoding
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Message is a whole DNS message.
type Message struct {
	Header      Header
	Questions   []Question
	Answers     []Resource
	Authorities []Resource
	Additionals []Resource
}

// Errors returned by the decoder.
var (
	ErrShortMessage   = errors.New("dnsmsg: message too short")
	ErrBadPointer     = errors.New("dnsmsg: bad compression pointer")
	ErrNameTooLong    = errors.New("dnsmsg: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnsmsg: label exceeds 63 octets")
	ErrTrailingData   = errors.New("dnsmsg: trailing bytes after message")
	ErrPointerLoop    = errors.New("dnsmsg: compression pointer loop")
	ErrBadRDataLength = errors.New("dnsmsg: rdata length mismatch")
	ErrDotInLabel     = errors.New("dnsmsg: label contains a dot")
)

// nameOffsets tracks where each (sub)name was first written, enabling
// RFC 1035 §4.1.4 compression pointers on encode.
type nameOffsets map[string]int

// appendCompressedName encodes a domain name, emitting a compression
// pointer for the longest previously-written suffix. Offsets beyond the
// 14-bit pointer range are written uncompressed.
func appendCompressedName(b []byte, name string, offs nameOffsets) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(b, 0), nil
	}
	if len(name) > 253 {
		return nil, ErrNameTooLong
	}
	// Suffixes are keyed lowercased. Lowercasing maps rune by rune and
	// never makes or removes a dot, so the lowered name has the same
	// labels, and each suffix's key is a substring of it, found by
	// stepping past one dot per label.
	lower := strings.ToLower(name)
	for rest, key := name, lower; ; {
		if off, ok := offs[key]; ok && off <= 0x3FFF {
			return append(b, 0xC0|byte(off>>8), byte(off)), nil
		}
		label, tail, more := strings.Cut(rest, ".")
		if len(label) == 0 {
			return nil, fmt.Errorf("dnsmsg: empty label in %q", name)
		}
		if len(label) > 63 {
			return nil, ErrLabelTooLong
		}
		if len(b) <= 0x3FFF {
			offs[key] = len(b)
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
		if !more {
			return append(b, 0), nil
		}
		rest, key = tail, key[strings.IndexByte(key, '.')+1:]
	}
}

// appendName encodes a domain name without compression (compression on
// encode is optional per RFC; we always decode it).
func appendName(b []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(b, 0), nil
	}
	if len(name) > 253 {
		return nil, ErrNameTooLong
	}
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 {
			return nil, fmt.Errorf("dnsmsg: empty label in %q", name)
		}
		if len(label) > 63 {
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// readName decodes a (possibly compressed) name starting at off in msg.
// It returns the name and the offset just past the name's in-place bytes.
func readName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	ret := off
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrShortMessage
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if !jumped {
				ret = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return name, ret, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrShortMessage
			}
			ptr := (c&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				ret = off + 2
				jumped = true
			}
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			off = ptr
			hops++
			if hops > 64 {
				return "", 0, ErrPointerLoop
			}
		case c&0xC0 != 0:
			return "", 0, fmt.Errorf("dnsmsg: reserved label type 0x%02x", c&0xC0)
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrShortMessage
			}
			// A dot inside a label has no unambiguous textual form: the
			// decoded name would re-encode with different label breaks.
			// Rejecting keeps decode∘encode a fixed point (fuzz-pinned).
			if strings.IndexByte(string(msg[off+1:off+1+c]), '.') >= 0 {
				return "", 0, ErrDotInLabel
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+c])
			if sb.Len() > 255 {
				return "", 0, ErrNameTooLong
			}
			off += 1 + c
		}
	}
}

// Pack serialises the message.
func (m *Message) Pack() ([]byte, error) {
	b := make([]byte, 0, 128)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.OpCode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode) & 0xF

	b = binary.BigEndian.AppendUint16(b, m.Header.ID)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authorities)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Additionals)))

	var err error
	offs := make(nameOffsets)
	for _, q := range m.Questions {
		if b, err = appendCompressedName(b, q.Name, offs); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	}
	for _, sect := range [][]Resource{m.Answers, m.Authorities, m.Additionals} {
		for _, r := range sect {
			if b, err = appendResource(b, r, offs); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func appendResource(b []byte, r Resource, offs nameOffsets) ([]byte, error) {
	var err error
	if b, err = appendCompressedName(b, r.Name, offs); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(r.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(r.Class))
	b = binary.BigEndian.AppendUint32(b, r.TTL)

	var rdata []byte
	switch r.Type {
	case TypeA:
		ip4 := r.A.To4()
		if ip4 == nil {
			return nil, fmt.Errorf("dnsmsg: A record with non-IPv4 address %v", r.A)
		}
		rdata = ip4
	case TypeAAAA:
		ip16 := r.A.To16()
		if ip16 == nil {
			return nil, fmt.Errorf("dnsmsg: AAAA record with bad address %v", r.A)
		}
		rdata = ip16
	case TypeCNAME, TypeNS:
		if rdata, err = appendName(nil, r.Name2); err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, s := range r.TXT {
			if len(s) > 255 {
				return nil, fmt.Errorf("dnsmsg: TXT string exceeds 255 bytes")
			}
			rdata = append(rdata, byte(len(s)))
			rdata = append(rdata, s...)
		}
	case TypeSOA:
		if r.SOA == nil {
			return nil, fmt.Errorf("dnsmsg: SOA record without data")
		}
		if rdata, err = appendName(nil, r.SOA.MName); err != nil {
			return nil, err
		}
		if rdata, err = appendName(rdata, r.SOA.RName); err != nil {
			return nil, err
		}
		rdata = binary.BigEndian.AppendUint32(rdata, r.SOA.Serial)
		rdata = binary.BigEndian.AppendUint32(rdata, r.SOA.Refresh)
		rdata = binary.BigEndian.AppendUint32(rdata, r.SOA.Retry)
		rdata = binary.BigEndian.AppendUint32(rdata, r.SOA.Expire)
		rdata = binary.BigEndian.AppendUint32(rdata, r.SOA.Minimum)
	default:
		// Unknown type: emit the preserved RDATA verbatim (nil for a
		// hand-built record, which packs as an empty-RDATA envelope).
		rdata = r.Raw
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(rdata)))
	return append(b, rdata...), nil
}

// Unpack parses a DNS message.
func Unpack(msg []byte) (*Message, error) {
	if len(msg) < 12 {
		return nil, ErrShortMessage
	}
	flags := binary.BigEndian.Uint16(msg[2:4])
	m := &Message{Header: Header{
		ID:                 binary.BigEndian.Uint16(msg[0:2]),
		Response:           flags&(1<<15) != 0,
		OpCode:             uint8(flags >> 11 & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xF),
	}}
	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))
	ns := int(binary.BigEndian.Uint16(msg[8:10]))
	ar := int(binary.BigEndian.Uint16(msg[10:12]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(msg, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(msg) {
			return nil, ErrShortMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sect := range []*[]Resource{&m.Answers, &m.Authorities, &m.Additionals} {
		var n int
		switch sect {
		case &m.Answers:
			n = an
		case &m.Authorities:
			n = ns
		default:
			n = ar
		}
		for i := 0; i < n; i++ {
			var r Resource
			r, off, err = readResource(msg, off)
			if err != nil {
				return nil, err
			}
			*sect = append(*sect, r)
		}
	}
	if off != len(msg) {
		return nil, ErrTrailingData
	}
	return m, nil
}

func readResource(msg []byte, off int) (Resource, int, error) {
	var r Resource
	var err error
	r.Name, off, err = readName(msg, off)
	if err != nil {
		return r, 0, err
	}
	if off+10 > len(msg) {
		return r, 0, ErrShortMessage
	}
	r.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	r.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	r.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return r, 0, ErrShortMessage
	}
	end := off + rdlen

	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, 0, ErrBadRDataLength
		}
		r.A = net.IP(append([]byte(nil), msg[off:end]...))
	case TypeAAAA:
		if rdlen != 16 {
			return r, 0, ErrBadRDataLength
		}
		r.A = net.IP(append([]byte(nil), msg[off:end]...))
	case TypeCNAME, TypeNS:
		var n int
		r.Name2, n, err = readName(msg, off)
		if err != nil {
			return r, 0, err
		}
		if n > end {
			return r, 0, ErrBadRDataLength
		}
	case TypeTXT:
		p := off
		for p < end {
			l := int(msg[p])
			p++
			if p+l > end {
				return r, 0, ErrBadRDataLength
			}
			r.TXT = append(r.TXT, string(msg[p:p+l]))
			p += l
		}
	case TypeSOA:
		soa := &SOAData{}
		p := off
		soa.MName, p, err = readName(msg, p)
		if err != nil {
			return r, 0, err
		}
		soa.RName, p, err = readName(msg, p)
		if err != nil {
			return r, 0, err
		}
		if p+20 > end {
			return r, 0, ErrBadRDataLength
		}
		soa.Serial = binary.BigEndian.Uint32(msg[p:])
		soa.Refresh = binary.BigEndian.Uint32(msg[p+4:])
		soa.Retry = binary.BigEndian.Uint32(msg[p+8:])
		soa.Expire = binary.BigEndian.Uint32(msg[p+12:])
		soa.Minimum = binary.BigEndian.Uint32(msg[p+16:])
		r.SOA = soa
	default:
		// Unknown type: keep the envelope and the raw RDATA so the
		// record survives a re-encode (fuzz-pinned round trip).
		if rdlen > 0 {
			r.Raw = append([]byte(nil), msg[off:end]...)
		}
	}
	return r, end, nil
}

// NewQuery builds a standard recursive query for name/type.
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// NewResponse builds a response skeleton echoing the query's ID and
// question.
func NewResponse(q *Message, rcode RCode) *Message {
	resp := &Message{Header: Header{
		ID:                 q.Header.ID,
		Response:           true,
		Authoritative:      true,
		RecursionDesired:   q.Header.RecursionDesired,
		RecursionAvailable: true,
		RCode:              rcode,
	}}
	resp.Questions = append(resp.Questions, q.Questions...)
	return resp
}

// Package h2 is the frame-level HTTP/2 data plane Panoptes speaks when
// a connection negotiates "h2" via ALPN: binary framing (connection
// preface, SETTINGS exchange, HEADERS/DATA streams, PING/GOAWAY) with a
// deliberately small HPACK subset — every header field is encoded as a
// "literal header field never indexed" with raw (non-Huffman) strings,
// which is valid HPACK any compliant peer can decode. Both halves of
// every h2 connection in the testbed are this package (browser client →
// MITM server, MITM client → vendor server), so the decoder only needs
// to accept the subset the encoder emits and rejects dynamic-table and
// Huffman forms with a clean error instead of desynchronising.
//
// Streams are strictly sequential (1, 3, 5, ...): the callers exchange
// one request at a time per connection, which keeps flow control moot
// for the testbed's small bodies and makes the capture order — and
// therefore every downstream analysis — deterministic.
package h2

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// ProtoName is the ALPN protocol identifier.
const ProtoName = "h2"

// ClientPreface is the fixed connection preface every h2 client sends.
const ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// Frame types (RFC 9113 §6).
const (
	frameData         = 0x0
	frameHeaders      = 0x1
	frameRSTStream    = 0x3
	frameSettings     = 0x4
	framePing         = 0x6
	frameGoAway       = 0x7
	frameWindowUpdate = 0x8
)

// Frame flags.
const (
	flagEndStream  = 0x1
	flagAck        = 0x1 // SETTINGS and PING reuse bit 0
	flagEndHeaders = 0x4
)

// maxFrameLen bounds any frame this implementation reads or writes: the
// testbed's bodies are capped well below it, so anything larger is a
// protocol error, not a legitimate payload.
const maxFrameLen = 1 << 20

// writeFrame emits one frame (header + payload) without flushing.
func writeFrame(bw *bufio.Writer, typ, flags byte, stream uint32, payload []byte) error {
	if len(payload) > maxFrameLen {
		return fmt.Errorf("h2: frame payload %d exceeds limit", len(payload))
	}
	var hdr [9]byte
	hdr[0] = byte(len(payload) >> 16)
	hdr[1] = byte(len(payload) >> 8)
	hdr[2] = byte(len(payload))
	hdr[3] = typ
	hdr[4] = flags
	binary.BigEndian.PutUint32(hdr[5:], stream&0x7fffffff)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// readFrame reads one frame header and its payload.
func readFrame(br *bufio.Reader) (typ, flags byte, stream uint32, payload []byte, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	n := int(hdr[0])<<16 | int(hdr[1])<<8 | int(hdr[2])
	if n > maxFrameLen {
		err = fmt.Errorf("h2: frame payload %d exceeds limit", n)
		return
	}
	typ, flags = hdr[3], hdr[4]
	stream = binary.BigEndian.Uint32(hdr[5:]) & 0x7fffffff
	payload = make([]byte, n)
	_, err = io.ReadFull(br, payload)
	return
}

// --- HPACK subset ---

// appendHpackInt appends v as an HPACK integer with an n-bit prefix,
// first byte pre-filled with the representation's pattern bits.
func appendHpackInt(b []byte, pattern byte, nbits uint, v int) []byte {
	max := (1 << nbits) - 1
	if v < max {
		return append(b, pattern|byte(v))
	}
	b = append(b, pattern|byte(max))
	v -= max
	for v >= 128 {
		b = append(b, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// readHpackInt decodes an HPACK integer with an n-bit prefix.
func readHpackInt(b []byte, nbits uint) (v, n int, err error) {
	if len(b) == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	max := (1 << nbits) - 1
	v = int(b[0]) & max
	n = 1
	if v < max {
		return v, n, nil
	}
	shift := uint(0)
	for {
		if n >= len(b) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		c := b[n]
		n++
		v += int(c&0x7f) << shift
		shift += 7
		if c&0x80 == 0 {
			return v, n, nil
		}
		if shift > 28 {
			return 0, 0, fmt.Errorf("h2: hpack integer overflow")
		}
	}
}

// appendHpackString appends a raw (non-Huffman) HPACK string.
func appendHpackString(b []byte, s string) []byte {
	b = appendHpackInt(b, 0x00, 7, len(s))
	return append(b, s...)
}

// readHpackString decodes one HPACK string, rejecting Huffman coding
// (the encoder in this package never emits it).
func readHpackString(b []byte) (s string, n int, err error) {
	if len(b) == 0 {
		return "", 0, io.ErrUnexpectedEOF
	}
	if b[0]&0x80 != 0 {
		return "", 0, fmt.Errorf("h2: hpack huffman string not supported")
	}
	l, n, err := readHpackInt(b, 7)
	if err != nil {
		return "", 0, err
	}
	if n+l > len(b) {
		return "", 0, io.ErrUnexpectedEOF
	}
	return string(b[n : n+l]), n + l, nil
}

// field is one header field in wire order.
type field struct{ name, value string }

// encodeFields renders fields as literal-never-indexed HPACK entries.
func encodeFields(fields []field) []byte {
	var b []byte
	for _, f := range fields {
		// 0001xxxx: literal header field never indexed, new name.
		b = appendHpackInt(b, 0x10, 4, 0)
		b = appendHpackString(b, f.name)
		b = appendHpackString(b, f.value)
	}
	return b
}

// decodeFields parses a header block of the subset this package emits:
// literal fields (never-indexed or without-indexing) with literal names.
// Indexed fields, incremental indexing and table-size updates are
// protocol errors here — no peer in the testbed produces them.
func decodeFields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		switch {
		case b[0]&0x80 != 0:
			return nil, fmt.Errorf("h2: hpack indexed field not supported")
		case b[0]&0x40 != 0:
			return nil, fmt.Errorf("h2: hpack incremental indexing not supported")
		case b[0]&0x20 != 0:
			return nil, fmt.Errorf("h2: hpack table size update not supported")
		}
		// 0000xxxx / 0001xxxx with a nonzero index would name a static
		// table entry; the encoder always writes index 0 (literal name).
		idx, n, err := readHpackInt(b, 4)
		if err != nil {
			return nil, err
		}
		if idx != 0 {
			return nil, fmt.Errorf("h2: hpack static name index not supported")
		}
		b = b[n:]
		name, n, err := readHpackString(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		value, n, err := readHpackString(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		out = append(out, field{name, value})
	}
	return out, nil
}

// requestFields renders an http.Request's header block: pseudo-headers
// first, then regular fields with lowercased names in sorted order (a
// deterministic wire image; HTTP/2 header order is not semantic).
func requestFields(req *http.Request) []field {
	path := req.URL.RequestURI()
	if path == "" {
		path = "/"
	}
	scheme := req.URL.Scheme
	if scheme == "" {
		scheme = "https"
	}
	authority := req.Host
	if authority == "" {
		authority = req.URL.Host
	}
	fields := []field{
		{":method", req.Method},
		{":scheme", scheme},
		{":authority", authority},
		{":path", path},
	}
	return append(fields, sortedFields(req.Header)...)
}

// sortedFields lowercases and sorts an http.Header into wire fields,
// dropping connection-level headers that have no place in h2.
func sortedFields(h http.Header) []field {
	var out []field
	for name, vals := range h {
		ln := strings.ToLower(name)
		switch ln {
		case "connection", "keep-alive", "proxy-connection", "transfer-encoding", "upgrade", "host":
			continue
		}
		for _, v := range vals {
			out = append(out, field{ln, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].value < out[j].value
	})
	return out
}

// fieldsToHeader splits decoded fields into pseudo-headers and an
// http.Header (canonicalised names).
func fieldsToHeader(fields []field) (pseudo map[string]string, hdr http.Header) {
	pseudo = map[string]string{}
	hdr = http.Header{}
	for _, f := range fields {
		if strings.HasPrefix(f.name, ":") {
			pseudo[f.name] = f.value
			continue
		}
		hdr.Add(f.name, f.value)
	}
	return pseudo, hdr
}

// --- Server ---

// Request is one decoded h2 request as the proxy-side server surfaces it.
type Request struct {
	Stream    uint32
	Method    string
	Scheme    string
	Authority string
	Path      string // includes the query, as sent in :path
	Header    http.Header
	Body      []byte
}

// HTTPRequest converts to a net/http request (fully buffered body), the
// form the proxy's addon chain and forward path consume. The :path is
// split on the first '?' without re-encoding: the components travel
// verbatim so capture sees exactly the wire bytes.
func (r *Request) HTTPRequest() *http.Request {
	path, query := r.Path, ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path, query = path[:i], path[i+1:]
	}
	return &http.Request{
		Method:        r.Method,
		URL:           &url.URL{Scheme: r.Scheme, Host: r.Authority, Path: path, RawQuery: query},
		Proto:         "HTTP/2.0",
		ProtoMajor:    2,
		ProtoMinor:    0,
		Header:        r.Header,
		Host:          r.Authority,
		ContentLength: int64(len(r.Body)),
		Body:          io.NopCloser(bytes.NewReader(r.Body)),
	}
}

// Server is the accepting half of one h2 connection: it consumes the
// client preface and SETTINGS, then surfaces requests one at a time.
type Server struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// open streams being assembled (headers seen, body accumulating).
	partial map[uint32]*Request
}

// NewServer adopts an accepted connection whose ALPN negotiated h2. It
// verifies the client preface and sends the server SETTINGS. br, when
// non-nil, carries bytes already buffered from the connection.
func NewServer(conn net.Conn, br *bufio.Reader) (*Server, error) {
	if br == nil {
		br = bufio.NewReader(conn)
	}
	s := &Server{conn: conn, br: br, bw: bufio.NewWriter(conn), partial: map[uint32]*Request{}}
	buf := make([]byte, len(ClientPreface))
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("h2: read preface: %w", err)
	}
	if string(buf) != ClientPreface {
		return nil, fmt.Errorf("h2: bad client preface")
	}
	if err := writeFrame(s.bw, frameSettings, 0, 0, nil); err != nil {
		return nil, err
	}
	if err := s.bw.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadRequest blocks for the next complete request. A clean connection
// shutdown (GOAWAY or EOF between requests) returns io.EOF.
func (s *Server) ReadRequest() (*Request, error) {
	for {
		typ, flags, stream, payload, err := readFrame(s.br)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, io.EOF
			}
			return nil, err
		}
		switch typ {
		case frameSettings:
			if flags&flagAck == 0 {
				if err := writeFrame(s.bw, frameSettings, flagAck, 0, nil); err != nil {
					return nil, err
				}
				if err := s.bw.Flush(); err != nil {
					return nil, err
				}
			}
		case framePing:
			if flags&flagAck == 0 {
				if err := writeFrame(s.bw, framePing, flagAck, 0, payload); err != nil {
					return nil, err
				}
				if err := s.bw.Flush(); err != nil {
					return nil, err
				}
			}
		case frameWindowUpdate, frameRSTStream:
			// Sequential streams with small bodies: window updates are
			// advisory here, and a reset stream simply never completes.
			delete(s.partial, stream)
		case frameGoAway:
			return nil, io.EOF
		case frameHeaders:
			if flags&flagEndHeaders == 0 {
				return nil, fmt.Errorf("h2: CONTINUATION not supported")
			}
			fields, err := decodeFields(payload)
			if err != nil {
				return nil, err
			}
			pseudo, hdr := fieldsToHeader(fields)
			req := &Request{
				Stream:    stream,
				Method:    pseudo[":method"],
				Scheme:    pseudo[":scheme"],
				Authority: pseudo[":authority"],
				Path:      pseudo[":path"],
				Header:    hdr,
			}
			if flags&flagEndStream != 0 {
				return req, nil
			}
			s.partial[stream] = req
		case frameData:
			req := s.partial[stream]
			if req == nil {
				return nil, fmt.Errorf("h2: DATA for unknown stream %d", stream)
			}
			req.Body = append(req.Body, payload...)
			if flags&flagEndStream != 0 {
				delete(s.partial, stream)
				return req, nil
			}
		default:
			// Unknown extension frames are ignored per spec.
		}
	}
}

// WriteResponse emits a complete response for a stream: one HEADERS
// frame (status pseudo-header plus sorted fields) and, when a body is
// present, one DATA frame carrying it. A non-nil size receives the
// response's wire bytes (frame headers included, the h2 analogue of an
// h1 response serialisation count) before the first frame is written.
func (s *Server) WriteResponse(stream uint32, status int, hdr http.Header, body []byte, size *int) error {
	fields := append([]field{{":status", strconv.Itoa(status)}}, sortedFields(hdr)...)
	block := encodeFields(fields)
	hflags := byte(flagEndHeaders)
	if len(body) == 0 {
		hflags |= flagEndStream
	}
	if size != nil {
		*size = 9 + len(block)
		if len(body) > 0 {
			*size += 9 + len(body)
		}
	}
	if err := writeFrame(s.bw, frameHeaders, hflags, stream, block); err != nil {
		return err
	}
	if len(body) > 0 {
		if err := writeFrame(s.bw, frameData, flagEndStream, stream, body); err != nil {
			return err
		}
	}
	return s.bw.Flush()
}

// WriteRST aborts a stream with RST_STREAM (INTERNAL_ERROR), the h2
// analogue of dropping an h1 connection mid-response.
func (s *Server) WriteRST(stream uint32) error {
	var code [4]byte
	binary.BigEndian.PutUint32(code[:], 0x2) // INTERNAL_ERROR
	if err := writeFrame(s.bw, frameRSTStream, 0, stream, code[:]); err != nil {
		return err
	}
	return s.bw.Flush()
}

// Close sends GOAWAY and closes the connection.
func (s *Server) Close() error {
	var payload [8]byte // last stream 0, error code NO_ERROR
	writeFrame(s.bw, frameGoAway, 0, 0, payload[:])
	s.bw.Flush()
	return s.conn.Close()
}

// --- Client ---

// Client is the dialing half of one h2 connection. RoundTrip is strictly
// sequential; the caller serialises exchanges (the proxy's connection
// pool hands a pooled client to one exchange at a time).
type Client struct {
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	nextStream uint32
}

// NewClient adopts a dialed connection whose ALPN negotiated h2 and
// sends the connection preface plus client SETTINGS.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), nextStream: 1}
	if _, err := c.bw.WriteString(ClientPreface); err != nil {
		return nil, err
	}
	if err := writeFrame(c.bw, frameSettings, 0, 0, nil); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c, nil
}

// RoundTrip sends one request and blocks for its complete response. The
// request body, if any, must be fully readable (the proxy and browser
// callers always hold buffered bodies).
func (c *Client) RoundTrip(req *http.Request) (*http.Response, error) {
	stream := c.nextStream
	c.nextStream += 2

	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("h2: read request body: %w", err)
		}
		body = b
	}
	hflags := byte(flagEndHeaders)
	if len(body) == 0 {
		hflags |= flagEndStream
	}
	if err := writeFrame(c.bw, frameHeaders, hflags, stream, encodeFields(requestFields(req))); err != nil {
		return nil, err
	}
	if len(body) > 0 {
		if err := writeFrame(c.bw, frameData, flagEndStream, stream, body); err != nil {
			return nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}

	var (
		status   int
		hdr      http.Header
		respBody []byte
	)
	for {
		typ, flags, fstream, payload, err := readFrame(c.br)
		if err != nil {
			return nil, fmt.Errorf("h2: read response: %w", err)
		}
		switch typ {
		case frameSettings:
			if flags&flagAck == 0 {
				if err := writeFrame(c.bw, frameSettings, flagAck, 0, nil); err != nil {
					return nil, err
				}
				if err := c.bw.Flush(); err != nil {
					return nil, err
				}
			}
		case framePing:
			if flags&flagAck == 0 {
				if err := writeFrame(c.bw, framePing, flagAck, 0, payload); err != nil {
					return nil, err
				}
				if err := c.bw.Flush(); err != nil {
					return nil, err
				}
			}
		case frameWindowUpdate:
			// ignored: sequential small exchanges never exhaust windows.
		case frameGoAway:
			return nil, fmt.Errorf("h2: connection closed by peer (GOAWAY)")
		case frameRSTStream:
			if fstream == stream {
				return nil, fmt.Errorf("h2: stream %d reset by peer", stream)
			}
		case frameHeaders:
			if fstream != stream {
				continue
			}
			if flags&flagEndHeaders == 0 {
				return nil, fmt.Errorf("h2: CONTINUATION not supported")
			}
			fields, err := decodeFields(payload)
			if err != nil {
				return nil, err
			}
			pseudo, h := fieldsToHeader(fields)
			status, err = strconv.Atoi(pseudo[":status"])
			if err != nil {
				return nil, fmt.Errorf("h2: bad :status %q", pseudo[":status"])
			}
			hdr = h
			if flags&flagEndStream != 0 {
				return c.response(req, status, hdr, respBody), nil
			}
		case frameData:
			if fstream != stream {
				continue
			}
			respBody = append(respBody, payload...)
			if flags&flagEndStream != 0 {
				return c.response(req, status, hdr, respBody), nil
			}
		}
	}
}

func (c *Client) response(req *http.Request, status int, hdr http.Header, body []byte) *http.Response {
	if hdr == nil {
		hdr = http.Header{}
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/2.0",
		ProtoMajor:    2,
		ProtoMinor:    0,
		Header:        hdr,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// --- Handler adapter ---

// responseRecorder is the minimal http.ResponseWriter ServeConn hands to
// an http.Handler so vendor backends can serve h2 unchanged.
type responseRecorder struct {
	hdr    http.Header
	buf    bytes.Buffer
	status int
}

func (r *responseRecorder) Header() http.Header { return r.hdr }
func (r *responseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *responseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// ServeConn runs a full h2 server connection over conn, dispatching each
// request to handler, until the peer closes. The vendor simulation uses
// it to put real HTTP/2 framing in front of its ordinary handlers.
func ServeConn(conn net.Conn, handler http.Handler) error {
	s, err := NewServer(conn, nil)
	if err != nil {
		conn.Close()
		return err
	}
	defer conn.Close()
	for {
		req, err := s.ReadRequest()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		hreq := req.HTTPRequest()
		hreq.RemoteAddr = conn.RemoteAddr().String()
		rec := &responseRecorder{hdr: http.Header{}}
		handler.ServeHTTP(rec, hreq)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		if err := s.WriteResponse(req.Stream, rec.status, rec.hdr, rec.buf.Bytes(), nil); err != nil {
			return err
		}
	}
}

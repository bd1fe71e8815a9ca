// Package ws is a minimal RFC 6455 WebSocket implementation (client and
// server) over arbitrary net.Conn transports. It exists as the CDP
// transport: browser emulators expose a DevTools WebSocket endpoint and
// the Panoptes host connects to it, exactly as the real framework speaks
// to Chrome's remote-debugging port.
//
// Supported: the opening handshake, text/binary messages, fragmentation
// on receive, client-side masking, ping/pong, and clean close. This is a
// deliberately small subset — enough for line-rate JSON-RPC — with strict
// validation of what it does implement.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// Opcode is a WebSocket frame opcode.
type Opcode byte

// Opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// Errors.
var (
	ErrClosed        = errors.New("ws: connection closed")
	ErrBadHandshake  = errors.New("ws: bad handshake")
	ErrProtocol      = errors.New("ws: protocol violation")
	ErrMessageTooBig = errors.New("ws: message exceeds limit")
)

// maxMessageSize bounds a reassembled message.
const maxMessageSize = 16 << 20

const acceptGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

func acceptKey(key string) string {
	h := sha1.New()
	io.WriteString(h, key+acceptGUID)
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// Conn is an established WebSocket connection.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client side masks its frames

	writeMu sync.Mutex
	readMu  sync.Mutex
	closed  bool
	closeMu sync.Mutex
}

func newConn(c net.Conn, br *bufio.Reader, client bool) *Conn {
	if br == nil {
		br = bufio.NewReader(c)
	}
	return &Conn{conn: c, br: br, client: client}
}

// Upgrade performs the server side of the opening handshake on an HTTP
// request and hijacks the connection.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") ||
		!headerContainsToken(r.Header.Get("Connection"), "upgrade") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, ErrBadHandshake
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, ErrBadHandshake
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, ErrBadHandshake
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijacking unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("ws: response writer cannot hijack")
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: write handshake response: %w", err)
	}
	return newConn(conn, brw.Reader, false), nil
}

// IsUpgradeRequest reports whether req is a WebSocket opening handshake.
// The transparent proxy uses it to route an intercepted GET to the
// upgrade path instead of the plain HTTP exchange path.
func IsUpgradeRequest(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get("Upgrade"), "websocket") &&
		headerContainsToken(r.Header.Get("Connection"), "upgrade")
}

// Accept performs the server side of the opening handshake directly over
// a net.Conn for a request the caller already parsed — the path used by
// the transparent proxy, which owns the raw (decrypted) connection and
// has no http.ResponseWriter to hijack. br, when non-nil, carries bytes
// already buffered past the request head.
func Accept(conn net.Conn, br *bufio.Reader, r *http.Request) (*Conn, error) {
	if !IsUpgradeRequest(r) {
		return nil, ErrBadHandshake
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadHandshake)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return nil, fmt.Errorf("%w: missing Sec-WebSocket-Key", ErrBadHandshake)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		return nil, fmt.Errorf("ws: write handshake response: %w", err)
	}
	return newConn(conn, br, false), nil
}

func headerContainsToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// Dial performs the client handshake for wsURL ("ws://host/path" or
// "wss://host/path") over a connection obtained from dial. For wss the
// dial callback is responsible for returning a TLS-wrapped connection;
// this layer only picks the default port (80 vs 443).
func Dial(wsURL string, dial func(addr string) (net.Conn, error)) (*Conn, error) {
	u, err := url.Parse(wsURL)
	if err != nil {
		return nil, fmt.Errorf("ws: parse url: %w", err)
	}
	defaultPort := ""
	switch u.Scheme {
	case "ws":
		defaultPort = "80"
	case "wss":
		defaultPort = "443"
	default:
		return nil, fmt.Errorf("ws: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if !strings.Contains(host, ":") {
		host += ":" + defaultPort
	}
	conn, err := dial(host)
	if err != nil {
		return nil, fmt.Errorf("ws: dial %s: %w", host, err)
	}

	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: nonce: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	path := u.RequestURI()
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\n"+
		"Connection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n",
		path, u.Host, key)
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: write handshake: %w", err)
	}

	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: read handshake response: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("%w: status %d", ErrBadHandshake, resp.StatusCode)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("%w: bad accept key", ErrBadHandshake)
	}
	return newConn(conn, br, true), nil
}

// WriteMessage sends a single unfragmented message.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("ws: WriteMessage with control opcode %d", op)
	}
	return c.writeFrame(op, payload, true)
}

// WriteFragmented sends one message split across the given chunks
// (initial data frame plus continuations), exercising the peer's
// reassembly path.
func (c *Conn) WriteFragmented(op Opcode, chunks ...[]byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("ws: WriteFragmented with control opcode %d", op)
	}
	if len(chunks) == 0 {
		return c.writeFrame(op, nil, true)
	}
	for i, chunk := range chunks {
		frameOp := OpContinuation
		if i == 0 {
			frameOp = op
		}
		fin := i == len(chunks)-1
		if err := c.writeFrame(frameOp, chunk, fin); err != nil {
			return err
		}
	}
	return nil
}

// Ping sends a ping control frame; the peer's ReadMessage answers with a
// pong transparently.
func (c *Conn) Ping(payload []byte) error {
	if len(payload) > 125 {
		return fmt.Errorf("ws: ping payload exceeds 125 bytes")
	}
	return c.writeFrame(OpPing, payload, true)
}

func (c *Conn) writeFrame(op Opcode, payload []byte, fin bool) error {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return ErrClosed
	}
	c.closeMu.Unlock()

	c.writeMu.Lock()
	defer c.writeMu.Unlock()

	var hdr [14]byte
	n := 0
	b0 := byte(op)
	if fin {
		b0 |= 0x80
	}
	hdr[0] = b0
	n = 2
	l := len(payload)
	switch {
	case l < 126:
		hdr[1] = byte(l)
	case l <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:], uint16(l))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(l))
		n = 10
	}

	var body []byte
	if c.client {
		hdr[1] |= 0x80
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return fmt.Errorf("ws: mask: %w", err)
		}
		copy(hdr[n:], mask[:])
		n += 4
		body = make([]byte, l)
		for i, b := range payload {
			body[i] = b ^ mask[i%4]
		}
	} else {
		body = payload
	}
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return fmt.Errorf("ws: write frame header: %w", err)
	}
	if _, err := c.conn.Write(body); err != nil {
		return fmt.Errorf("ws: write frame body: %w", err)
	}
	return nil
}

// ReadMessage returns the next complete data message, transparently
// answering pings and reassembling fragmented messages. A received close
// frame (or EOF) yields ErrClosed.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()

	var msgOp Opcode
	var buf []byte
	for {
		fin, op, payload, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case OpPing:
			if err := c.writeFrame(OpPong, payload, true); err != nil {
				return 0, nil, err
			}
			continue
		case OpPong:
			continue
		case OpClose:
			c.writeFrame(OpClose, nil, true)
			c.markClosed()
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if buf != nil {
				return 0, nil, fmt.Errorf("%w: new data frame inside fragmented message", ErrProtocol)
			}
			msgOp = op
			buf = payload
		case OpContinuation:
			if buf == nil {
				return 0, nil, fmt.Errorf("%w: continuation without initial frame", ErrProtocol)
			}
			buf = append(buf, payload...)
		default:
			return 0, nil, fmt.Errorf("%w: reserved opcode %d", ErrProtocol, op)
		}
		if len(buf) > maxMessageSize {
			return 0, nil, ErrMessageTooBig
		}
		if fin && buf != nil {
			return msgOp, buf, nil
		}
	}
}

func (c *Conn) readFrame() (fin bool, op Opcode, payload []byte, err error) {
	var h [2]byte
	if _, err = io.ReadFull(c.br, h[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			c.markClosed()
			return false, 0, nil, ErrClosed
		}
		return false, 0, nil, fmt.Errorf("ws: read frame header: %w", err)
	}
	fin = h[0]&0x80 != 0
	if h[0]&0x70 != 0 {
		return false, 0, nil, fmt.Errorf("%w: RSV bits set", ErrProtocol)
	}
	op = Opcode(h[0] & 0x0F)
	masked := h[1]&0x80 != 0
	length := uint64(h[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, fmt.Errorf("ws: read length: %w", err)
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, fmt.Errorf("ws: read length: %w", err)
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > maxMessageSize {
		return false, 0, nil, ErrMessageTooBig
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, mask[:]); err != nil {
			return false, 0, nil, fmt.Errorf("ws: read mask: %w", err)
		}
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return false, 0, nil, fmt.Errorf("ws: read payload: %w", err)
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	return fin, op, payload, nil
}

func (c *Conn) markClosed() {
	c.closeMu.Lock()
	c.closed = true
	c.closeMu.Unlock()
}

// Close sends a close frame (best effort) and closes the transport.
func (c *Conn) Close() error {
	c.closeMu.Lock()
	already := c.closed
	c.closed = true
	c.closeMu.Unlock()
	if !already {
		c.writeMu.Lock()
		// Direct write: writeFrame would refuse now that closed is set.
		hdr := []byte{byte(OpClose) | 0x80, 0}
		if c.client {
			hdr[1] = 0x80
			hdr = append(hdr, 0, 0, 0, 0)
		}
		c.conn.Write(hdr)
		c.writeMu.Unlock()
	}
	return c.conn.Close()
}

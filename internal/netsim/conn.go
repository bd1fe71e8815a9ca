package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Meta carries simulation metadata on a connection: the kernel UID of the
// process that created it and, after a netfilter REDIRECT, the original
// destination (the in-memory analogue of SO_ORIGINAL_DST).
type Meta struct {
	// OwnerUID is the kernel UID of the originating app process, or -1
	// when unknown.
	OwnerUID int
	// OriginalDst is the "host:port" the process originally dialled,
	// preserved across transparent redirection.
	OriginalDst string
	// Redirected reports whether a REDIRECT target rewrote the
	// destination.
	Redirected bool
}

// MetaConn is implemented by connections that carry Meta. The transparent
// proxy uses it to recover the original destination of a diverted flow.
type MetaConn interface {
	net.Conn
	Meta() Meta
}

// segSize is the capacity of one pipe segment: a full TLS record's
// plaintext, so a page-sized body crosses a pipe in a handful of them.
const segSize = 16 << 10

// segment is a fixed-size slab of queued bytes; r and w index the
// unread span. Segments are shared by every pipe through segPool.
type segment struct {
	b    [segSize]byte
	r, w int
}

var segPool = sync.Pool{New: func() any { return new(segment) }}

// pipeBuf is one direction of an in-memory connection: a byte queue with
// blocking reads, close semantics and deadline support. Bytes queue in
// pooled segments; a segment goes back to segPool as soon as it is read
// out, so a drained pipe holds no buffer memory.
type pipeBuf struct {
	mu       sync.Mutex
	cond     *sync.Cond
	segs     []*segment // oldest first; only the last has free space
	n        int        // bytes queued
	closed   bool       // no more writes will arrive
	deadline time.Time
	dlTimer  *time.Timer
}

func newPipeBuf() *pipeBuf {
	b := &pipeBuf{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *pipeBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	for rest := p; len(rest) > 0; {
		var tail *segment
		if k := len(b.segs); k > 0 && b.segs[k-1].w < segSize {
			tail = b.segs[k-1]
		} else {
			tail = segPool.Get().(*segment)
			tail.r, tail.w = 0, 0
			b.segs = append(b.segs, tail)
		}
		c := copy(tail.b[tail.w:], rest)
		tail.w += c
		rest = rest[c:]
	}
	b.n += len(p)
	b.cond.Broadcast()
	return len(p), nil
}

// read copies out of the oldest segment only, so one read returns at
// most one segment's worth of bytes.
func (b *pipeBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.n > 0 {
			head := b.segs[0]
			n := copy(p, head.b[head.r:head.w])
			head.r += n
			b.n -= n
			if head.r == head.w {
				copy(b.segs, b.segs[1:])
				b.segs[len(b.segs)-1] = nil
				b.segs = b.segs[:len(b.segs)-1]
				segPool.Put(head)
			}
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		b.cond.Wait()
	}
}

func (b *pipeBuf) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

func (b *pipeBuf) setDeadline(t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deadline = t
	if b.dlTimer != nil {
		b.dlTimer.Stop()
		b.dlTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		b.dlTimer = time.AfterFunc(d, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
	}
	b.cond.Broadcast()
}

func (b *pipeBuf) buffered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Conn is one endpoint of an in-memory duplex connection. It implements
// net.Conn (and MetaConn) with buffered writes, so HTTP request/response
// exchanges never deadlock the way unbuffered net.Pipe can.
type Conn struct {
	rd, wr    *pipeBuf
	local     net.Addr
	remote    net.Addr
	meta      Meta
	closeOnce sync.Once
	wrote     func(int) // byte accounting hook, may be nil
	readCount func(int)
}

// Pair returns two connected endpoints with the given addresses. Data
// written to one end is readable from the other. meta is attached to the
// client end; the server end sees the same meta (the proxy reads it from
// the accepted side).
func Pair(clientAddr, serverAddr net.Addr, meta Meta) (client, server *Conn) {
	a2b := newPipeBuf() // client writes, server reads
	b2a := newPipeBuf() // server writes, client reads
	client = &Conn{rd: b2a, wr: a2b, local: clientAddr, remote: serverAddr, meta: meta}
	server = &Conn{rd: a2b, wr: b2a, local: serverAddr, remote: clientAddr, meta: meta}
	return client, server
}

// Read reads available bytes, blocking until data, EOF or deadline.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.rd.read(p)
	if n > 0 && c.readCount != nil {
		c.readCount(n)
	}
	return n, err
}

// Write appends p to the peer's read buffer.
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.wr.write(p)
	if n > 0 && c.wrote != nil {
		c.wrote(n)
	}
	return n, err
}

// Close closes both directions. The peer's reads return EOF once the
// buffered data is drained; the peer's writes fail immediately.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.close()
		c.rd.close()
	})
	return nil
}

// LocalAddr returns this endpoint's address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setDeadline(t)
	c.wr.setDeadline(t)
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.setDeadline(t)
	return nil
}

// SetWriteDeadline sets the write deadline. Writes to an in-memory buffer
// never block, so the deadline only matters once the peer closes.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wr.setDeadline(t)
	return nil
}

// Meta returns the simulation metadata attached at dial time.
func (c *Conn) Meta() Meta { return c.meta }

// SetMeta replaces the metadata on this endpoint. The device network stack
// uses it to stamp the original destination before handing the server end
// to the transparent proxy.
func (c *Conn) SetMeta(m Meta) { c.meta = m }

// SetByteHooks installs per-direction byte counters: onWrite runs with the
// size of every successful Write, onRead with the size of every successful
// Read. The device network stack wires these to its eBPF-style per-UID
// traffic accounting. Either hook may be nil.
func (c *Conn) SetByteHooks(onWrite, onRead func(n int)) {
	c.wrote = onWrite
	c.readCount = onRead
}

// BufferedForRead reports the number of bytes waiting to be read. Tests
// use it to assert drain behaviour.
func (c *Conn) BufferedForRead() int { return c.rd.buffered() }

// TCPAddr builds a *net.TCPAddr for ip:port.
func TCPAddr(ip net.IP, port int) *net.TCPAddr {
	return &net.TCPAddr{IP: ip, Port: port}
}

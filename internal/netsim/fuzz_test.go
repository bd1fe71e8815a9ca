package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// FuzzPipe drives one direction of a Pair with a script decoded from the
// input: writes of arbitrary size (up to a few segments), reads into
// buffers of arbitrary size, reads against an expired deadline, and a
// close. Whatever the interleaving, the reader must see the written byte
// stream exactly, EOF only once the pipe has drained, BufferedForRead
// equal to the bytes queued, and no segment held by a drained pipe.
func FuzzPipe(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 3})
	f.Add([]byte{0, 0xff, 0xff, 1, 0x80, 0x00, 2, 0x00, 2, 0xff, 3, 2, 0x10})
	f.Add([]byte{1, 0x40, 0x01, 1, 0x3f, 0xff, 2, 0x07, 4, 2, 0xff, 0, 0xc0, 0x00, 3})
	f.Add([]byte{4, 0, 0x00, 0x01, 2, 0x00, 4, 3, 2, 1})
	f.Add([]byte{0, 0xbf, 0xff, 2, 0xff, 0, 0x40, 0x00, 4, 0x20, 2, 0xff, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, script []byte) {
		a, b := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
		var wroteHook, readHook int
		a.SetByteHooks(func(n int) { wroteHook += n }, nil)
		b.SetByteHooks(nil, func(n int) { readHook += n })

		var sent, got []byte
		closed := false
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			v := int(script[0])
			script = script[1:]
			return v
		}
		read := func(size int) {
			t.Helper()
			queued := len(sent) - len(got)
			if queued == 0 && !closed {
				return // would block
			}
			buf := make([]byte, size)
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			switch {
			case queued > 0 && (err != nil || n == 0 && size > 0):
				t.Fatalf("read of %d with %d queued = %d, %v", size, queued, n, err)
			case queued == 0 && err != io.EOF:
				t.Fatalf("read of a drained closed pipe = %d, %v; want EOF", n, err)
			case n > segSize:
				t.Fatalf("one read returned %d bytes, more than a segment", n)
			}
		}

		for len(script) > 0 {
			switch next() % 5 {
			case 0, 1: // write
				size := (next()<<8 | next()) % (3 * segSize)
				p := make([]byte, size)
				for i := range p {
					p[i] = byte(len(sent) + i)
				}
				n, err := a.Write(p)
				if closed {
					if err == nil {
						t.Fatal("write after close succeeded")
					}
					continue
				}
				if err != nil || n != size {
					t.Fatalf("write of %d = %d, %v", size, n, err)
				}
				sent = append(sent, p...)
			case 2: // read into a buffer of 1..4096 bytes
				read(next()<<4 + 1)
			case 3:
				a.Close()
				closed = true
			case 4: // an expired deadline fails only a read that would block
				b.SetReadDeadline(time.Now().Add(-time.Second))
				if len(sent) == len(got) && !closed {
					if _, err := b.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("blocked read past its deadline = %v", err)
					}
				} else {
					read(next() + 1)
				}
				b.SetReadDeadline(time.Time{})
			}
			checkQueued(t, b, len(sent)-len(got))
		}

		if !closed {
			a.Close()
			closed = true
		}
		for len(got) < len(sent) {
			read(segSize)
			checkQueued(t, b, len(sent)-len(got))
		}
		read(1) // EOF after drain
		if !bytes.Equal(got, sent) {
			t.Fatalf("read %d bytes, not the %d written", len(got), len(sent))
		}
		if wroteHook != len(sent) || readHook != len(got) {
			t.Fatalf("byte hooks saw wrote=%d read=%d, want %d each", wroteHook, readHook, len(sent))
		}
	})
}

// checkQueued asserts c's read side holds exactly queued bytes, and no
// segment once drained.
func checkQueued(t *testing.T, c *Conn, queued int) {
	t.Helper()
	if n := c.BufferedForRead(); n != queued {
		t.Fatalf("BufferedForRead = %d, want %d", n, queued)
	}
	c.rd.mu.Lock()
	segs := len(c.rd.segs)
	c.rd.mu.Unlock()
	if queued == 0 && segs != 0 {
		t.Fatalf("drained pipe holds %d segments", segs)
	}
}

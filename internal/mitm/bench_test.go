package mitm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/connpool"
)

// BenchmarkMitmBodyAlloc measures the steady-state allocation cost of
// the two body-handling hot paths. Pre-diet, buildFlow made three
// body-sized copies per request (io.ReadAll growth, the capped capture
// copy, and a string conversion for the replay reader) plus a fresh
// Flow, header map and header-value slices every exchange; with the
// recycled Flow pool and pooled buffers the steady state is down to the
// replay reader pair and one header-value backing array.
//
// The exchange/chunked cases read an upstream response with no
// Content-Length, the common case for page assets: its body buffer
// comes from the unknown-length class, so a buffer that failed to
// recycle shows up as extra allocs/op.
func BenchmarkMitmBodyAlloc(b *testing.B) {
	u, _ := url.Parse("https://dest.test/submit?v=1")
	now := func() time.Time { return time.Unix(1700000000, 0) }
	for _, size := range []int{512, 8 << 10, 256 << 10} {
		payload := bytes.Repeat([]byte("x"), size)
		b.Run(fmt.Sprintf("buildFlow/body=%d", size), func(b *testing.B) {
			p := &Proxy{Now: now}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := &http.Request{
					Method: "POST", URL: u, Header: http.Header{},
					Body: io.NopCloser(bytes.NewReader(payload)), ContentLength: int64(size),
				}
				f, buf := p.buildFlow(req, "https", "dest.test", 7, capture.TransportH1, "")
				if f.ReqBytes < size {
					b.Fatalf("short read: %d", f.ReqBytes)
				}
				if buf != nil {
					bodyPool.Put(buf)
				}
				f.Release()
			}
		})
		b.Run(fmt.Sprintf("writeResponse/body=%d", size), func(b *testing.B) {
			p := &Proxy{Now: now}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			resp := &http.Response{
				StatusCode:    200,
				Header:        http.Header{"Content-Type": {"application/json"}},
				ContentLength: int64(size),
			}
			var n int
			for i := 0; i < b.N; i++ {
				if err := p.writeResponse(io.Discard, resp, payload, &n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("exchange/chunked/body=%d", size), func(b *testing.B) {
			p := &Proxy{Now: now}
			wire := chunkedResponse(payload)
			src := bytes.NewReader(wire)
			pc := connpool.Entry{Conn: discardConn{}, R: bufio.NewReader(src)}
			req := &http.Request{Method: "GET", URL: u, Header: http.Header{}}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Reset(wire)
				pc.R.Reset(src)
				resp, bb, err := p.exchange(pc, "https|h1|dest.test:443", nil, req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.ContentLength >= 0 || bb.Len() != size {
					b.Fatalf("want an unknown-length body of %d bytes, got %d (Content-Length %d)", size, bb.Len(), resp.ContentLength)
				}
				bodyPool.Put(bb)
			}
		})
	}
}

// chunkedResponse frames body as an HTTP/1.1 response without a
// Content-Length, in 4 KiB chunks as a streaming origin writes it.
func chunkedResponse(body []byte) []byte {
	var w bytes.Buffer
	w.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/javascript\r\nTransfer-Encoding: chunked\r\n\r\n")
	for len(body) > 0 {
		n := min(len(body), 4<<10)
		fmt.Fprintf(&w, "%x\r\n", n)
		w.Write(body[:n])
		w.WriteString("\r\n")
		body = body[n:]
	}
	w.WriteString("0\r\n\r\n")
	return w.Bytes()
}

// discardConn is an upstream connection that swallows the request.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

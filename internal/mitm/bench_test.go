package mitm

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"panoptes/internal/capture"
)

// BenchmarkMitmBodyAlloc measures the steady-state allocation cost of
// the two body-handling hot paths. Pre-diet, buildFlow made three
// body-sized copies per request (io.ReadAll growth, the capped capture
// copy, and a string conversion for the replay reader) plus a fresh
// Flow, header map and header-value slices every exchange; with the
// recycled Flow pool and pooled buffers the steady state is down to the
// replay reader pair and one header-value backing array.
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
	}
}

package mitm

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"

	"panoptes/internal/capture"
	"panoptes/internal/h2"
	"panoptes/internal/sink"
	"panoptes/internal/ws"
)

// ndjsonPublisher encodes every batch it is handed, as the file and HTTP
// sinks do, and keeps the decoded flows.
type ndjsonPublisher struct {
	mu    sync.Mutex
	flows []capture.Flow
}

func (p *ndjsonPublisher) Name() string { return "ndjson" }
func (p *ndjsonPublisher) Close() error { return nil }

func (p *ndjsonPublisher) Publish(batch []sink.Envelope) error {
	var raw bytes.Buffer
	if err := sink.AppendNDJSON(&raw, batch); err != nil {
		return err
	}
	dec := json.NewDecoder(&raw)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		var e sink.Envelope
		if err := dec.Decode(&e); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if e.Flow != nil {
			p.flows = append(p.flows, *e.Flow)
		}
	}
}

// exchange is what a client saw of one exchange: the flow the proxy
// commits for it must carry the same final Status and RespBytes.
type exchange struct {
	transport, method string
	status, respBytes int
}

// exchangeLog collects the client-side view of every exchange, keyed by
// the request path (unique per exchange; a WS frame adds its payload).
type exchangeLog struct {
	mu   sync.Mutex
	want map[string]exchange
}

func (l *exchangeLog) add(t *testing.T, key string, e exchange) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.want[key]; dup {
		t.Errorf("exchange %s logged twice", key)
	}
	l.want[key] = e
}

// h1WireSize is the size of the HTTP/1.1 response the client read: the
// status line, every header the proxy wrote, the blank line and the body.
func h1WireSize(resp *http.Response, body []byte) int {
	n := len(fmt.Sprintf("HTTP/1.1 %d %s\r\n", resp.StatusCode, http.StatusText(resp.StatusCode))) + 2 + len(body)
	for k, vs := range resp.Header {
		for _, v := range vs {
			n += len(k) + len(": ") + len(v) + 2
		}
	}
	return n
}

// h2WireSize is the size of the h2 response the client read: a HEADERS
// frame of literal never-indexed fields and one DATA frame.
func h2WireSize(resp *http.Response, body []byte) int {
	n := 9 + 1 + hpackStrLen(":status") + hpackStrLen(fmt.Sprint(resp.StatusCode))
	for k, vs := range resp.Header {
		for _, v := range vs {
			n += 1 + hpackStrLen(k) + hpackStrLen(v)
		}
	}
	if len(body) > 0 {
		n += 9 + len(body)
	}
	return n
}

// hpackStrLen is the encoded size of a literal HPACK string: a 7-bit
// prefixed length, then the raw bytes.
func hpackStrLen(s string) int {
	n, v := 1, len(s)
	if v >= 127 {
		for v -= 127; v >= 128; v >>= 7 {
			n++
		}
		n++
	}
	return n + len(s)
}

// TestUntaggedFlowsExportFinal pushes untagged flows (attempt 0, as in
// settle traffic and everything cmd/mitmdump captures) through the real
// proxy and taint splitter into an exporter whose publisher encodes each
// batch on its dispatcher goroutine while the proxy serves on. Every
// published flow must carry its final Status, and h1/h2 flows the wire
// size of the response their client read; the proxy's own error answers
// keep RespBytes 0. Run under -race: a flow written after its commit
// races with the encoder.
func TestUntaggedFlowsExportFinal(t *testing.T) {
	const clients, perClient, frames = 4, 8, 4
	r := newRig(t, nil)
	r.inet.RegisterDomain("dead.example", "US")

	wsL, _, err := r.inet.ListenDomain("ws.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	wsSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		c, err := ws.Upgrade(w, req)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, append([]byte("ack:"), msg...)); err != nil {
				return
			}
		}
	})}
	go wsSrv.Serve(wsL)
	t.Cleanup(func() { wsSrv.Close() })

	pub := &ndjsonPublisher{}
	exp := sink.NewExporter(sink.Config{BatchSize: 1, Policy: sink.PolicyBlock}, pub)
	r.db.SetTap(exp)

	dial := func(addr string) (net.Conn, error) {
		return r.dev.DialContext(context.Background(), r.browser.UID, addr)
	}
	log := &exchangeLog{want: map[string]exchange{}}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(3)
		go func(c int) { // h1 over TLS, keep-alive, plus one upstream failure
			defer wg.Done()
			client := r.appClient()
			for i := 0; i < perClient; i++ {
				path := fmt.Sprintf("/h1/c%d/r%d", c, i)
				resp, err := client.Get("https://site.example" + path)
				if err != nil {
					t.Errorf("h1 %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				log.add(t, path, exchange{capture.TransportH1, "GET", resp.StatusCode, h1WireSize(resp, body)})
			}
			path := fmt.Sprintf("/dead/c%d", c)
			resp, err := client.Get("https://dead.example" + path)
			if err != nil {
				t.Errorf("h1 %s: %v", path, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			log.add(t, path, exchange{capture.TransportH1, "GET", resp.StatusCode, 0})
		}(c)
		go func(c int) { // h2, sequential streams on one connection
			defer wg.Done()
			conn, err := dial("site.example:443")
			if err != nil {
				t.Errorf("h2 dial: %v", err)
				return
			}
			tc := tls.Client(conn, &tls.Config{RootCAs: r.dev.TrustedRoots(), Time: r.dev.Clock.Now,
				ServerName: "site.example", NextProtos: []string{h2.ProtoName}})
			hc, err := h2.NewClient(tc)
			if err != nil {
				t.Errorf("h2 client: %v", err)
				return
			}
			defer hc.Close()
			for i := 0; i < perClient; i++ {
				path := fmt.Sprintf("/h2/c%d/r%d", c, i)
				req, _ := http.NewRequest("GET", "https://site.example"+path, nil)
				resp, err := hc.RoundTrip(req)
				if err != nil {
					t.Errorf("h2 %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				log.add(t, path, exchange{capture.TransportH2, "GET", resp.StatusCode, h2WireSize(resp, body)})
			}
		}(c)
		go func(c int) { // WebSocket upgrade plus acked frames
			defer wg.Done()
			path := fmt.Sprintf("/ws/c%d", c)
			conn, err := ws.Dial("ws://ws.example"+path, dial)
			if err != nil {
				t.Errorf("ws %s: %v", path, err)
				return
			}
			defer conn.Close()
			log.add(t, path, exchange{capture.TransportWS, "GET", http.StatusSwitchingProtocols, 0})
			for i := 0; i < frames; i++ {
				msg := fmt.Sprintf("frame-%d", i)
				if err := conn.WriteMessage(ws.OpText, []byte(msg)); err != nil {
					t.Errorf("ws %s write: %v", path, err)
					return
				}
				_, ack, err := conn.ReadMessage()
				if err != nil {
					t.Errorf("ws %s read: %v", path, err)
					return
				}
				log.add(t, fmt.Sprintf("%s#%s", path, msg), exchange{capture.TransportWS, "WS", http.StatusOK, len(ack)})
			}
		}(c)
	}
	wg.Wait()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	pub.mu.Lock()
	defer pub.mu.Unlock()
	got := map[string]int{}
	for _, f := range pub.flows {
		key := f.Path
		if f.Method == "WS" {
			key += "#" + string(f.Body)
		}
		got[key]++
		want, ok := log.want[key]
		if !ok {
			t.Errorf("published a flow no client made: %s %s%s", f.Method, f.Host, f.Path)
			continue
		}
		if f.Transport != want.transport || f.Method != want.method || f.Status != want.status || f.RespBytes != want.respBytes {
			t.Errorf("%s: published %s %s status %d resp_bytes %d, client saw %s %s status %d resp_bytes %d",
				key, f.Transport, f.Method, f.Status, f.RespBytes, want.transport, want.method, want.status, want.respBytes)
		}
	}
	for key := range log.want {
		if got[key] != 1 {
			t.Errorf("%s published %d times, want once", key, got[key])
		}
	}
	if len(log.want) != clients*(2*perClient+2+frames) {
		t.Fatalf("logged %d exchanges, want %d", len(log.want), clients*(2*perClient+2+frames))
	}
}

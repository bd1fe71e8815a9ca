package h2

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"panoptes/internal/netsim"
)

func pipePair() (client, server net.Conn) {
	a := netsim.TCPAddr(net.IPv4(10, 0, 0, 1), 40000)
	b := netsim.TCPAddr(net.IPv4(93, 184, 216, 34), 443)
	return netsim.Pair(a, b, netsim.Meta{OwnerUID: -1})
}

func TestHpackIntRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, 14, 15, 16, 127, 128, 300, 1 << 14, 1 << 20} {
		b := appendHpackInt(nil, 0x10, 4, v)
		got, n, err := readHpackInt(b, 4)
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		if got != v || n != len(b) {
			t.Fatalf("decode %d: got %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestHpackFieldsRoundTrip(t *testing.T) {
	in := []field{
		{":method", "POST"},
		{":path", "/v1/events?uid=42"},
		{"content-type", "application/json"},
		{"x-long", strings.Repeat("v", 300)}, // forces multi-byte length
		{"x-empty", ""},
	}
	out, err := decodeFields(encodeFields(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d fields, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("field %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestHpackRejectsDynamicForms(t *testing.T) {
	cases := map[string][]byte{
		"indexed":           {0x82},       // static table index 2
		"incremental":       {0x41, 0x00}, // literal with incremental indexing
		"table size update": {0x3f},
	}
	for name, b := range cases {
		if _, err := decodeFields(b); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	cc, sc := pipePair()
	defer cc.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- ServeConn(sc, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Proto != "HTTP/2.0" {
				t.Errorf("server saw proto %q", r.Proto)
			}
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("X-Echo-Path", r.URL.Path)
			w.Header().Set("X-Echo-Query", r.URL.RawQuery)
			w.Header().Set("X-Echo-Ua", r.Header.Get("User-Agent"))
			if len(body) > 0 {
				w.WriteHeader(http.StatusCreated)
				w.Write(body)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}))
	}()

	c, err := NewClient(cc)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// GET without body.
	req, _ := http.NewRequest("GET", "https://update.googleapis.com/service/update2?cup2key=9", nil)
	req.Header.Set("User-Agent", "Chrome/119")
	resp, err := c.RoundTrip(req)
	if err != nil {
		t.Fatalf("RoundTrip GET: %v", err)
	}
	if resp.StatusCode != http.StatusNoContent || resp.Proto != "HTTP/2.0" {
		t.Fatalf("GET: status=%d proto=%s", resp.StatusCode, resp.Proto)
	}
	if got := resp.Header.Get("X-Echo-Path"); got != "/service/update2" {
		t.Fatalf("GET path echo: %q", got)
	}
	if got := resp.Header.Get("X-Echo-Query"); got != "cup2key=9" {
		t.Fatalf("GET query echo: %q", got)
	}
	if got := resp.Header.Get("X-Echo-Ua"); got != "Chrome/119" {
		t.Fatalf("GET ua echo: %q", got)
	}

	// POST with body on the same connection (stream 3).
	payload := []byte(`{"device_id":"abc123"}`)
	req2, _ := http.NewRequest("POST", "https://update.googleapis.com/v1/events", bytes.NewReader(payload))
	resp2, err := c.RoundTrip(req2)
	if err != nil {
		t.Fatalf("RoundTrip POST: %v", err)
	}
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("POST status: %d", resp2.StatusCode)
	}
	echo, _ := io.ReadAll(resp2.Body)
	if !bytes.Equal(echo, payload) {
		t.Fatalf("POST echo: %q", echo)
	}

	c.Close()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestServerRejectsBadPreface(t *testing.T) {
	cc, sc := pipePair()
	go func() {
		cc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
		cc.Close()
	}()
	if _, err := NewServer(sc); err == nil {
		t.Fatal("expected preface error")
	}
}

func TestLargeBodySplitFrames(t *testing.T) {
	// A body larger than one frame's worth still round-trips: the client
	// writes one DATA frame (within maxFrameLen), the server accumulates.
	cc, sc := pipePair()
	defer cc.Close()
	go ServeConn(sc, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	}))
	c, err := NewClient(cc)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	big := bytes.Repeat([]byte("telemetry"), 8192) // 72 KiB
	req, _ := http.NewRequest("POST", "https://browser.events.data.msn.com/OneCollector/1.0", bytes.NewReader(big))
	resp, err := c.RoundTrip(req)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	echo, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(echo, big) {
		t.Fatalf("large body mismatch: got %d bytes want %d", len(echo), len(big))
	}
}

// Package mitm implements the transparent Man-In-The-Middle proxy at the
// centre of the Panoptes testbed (paper §2.2): connections diverted by the
// per-UID iptables rules arrive here with their original destination
// preserved; the proxy terminates TLS with a certificate minted on the
// fly from its CA (installed in the device trust store), parses HTTP/1.1,
// runs an addon chain over each exchange (the taint-splitting addon lives
// in internal/taint), and forwards the request to the real destination
// over its own upstream TLS session.
//
// Apps that pin their vendor's key reject the minted certificate and the
// flow never completes — the paper's footnote 3 behaviour, which the
// proxy surfaces as a handshake-failure counter rather than hiding.
//
// The data plane is built for throughput: client-facing handshakes
// resume via shared session-ticket keys, upstream dials resume via a
// shared session cache and reuse pooled connections (internal/connpool),
// flow records are reference-counted recycled structs
// (capture.AcquireFlow), and Serve hands each connection its own
// goroutine.
package mitm

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/bytepool"
	"panoptes/internal/capture"
	"panoptes/internal/connpool"
	"panoptes/internal/faultsim"
	"panoptes/internal/h2"
	"panoptes/internal/netsim"
	"panoptes/internal/obs"
	"panoptes/internal/pki"
	"panoptes/internal/ws"
)

// bodyPool recycles the scratch buffers that read request and response
// bodies off the wire. Classes cover small telemetry beacons, typical
// page assets, and the megabyte tail; a pathological body beyond 4× the
// top class is dropped on Put rather than pinned.
var bodyPool = bytepool.New("mitm_body", 4<<10, 64<<10, 1<<20)

// getBody borrows a scratch buffer for a body whose declared length is
// n. An unknown length (n < 0, a chunked body) borrows from the 64 KiB
// class: such bodies are mostly page assets of a few to ~90 KiB, and a
// buffer that grew past 64 KiB is re-binned on Put into that class, so
// a smallest-class Get would never see it again and regrow from 4 KiB.
func getBody(n int64) *bytes.Buffer {
	if n < 0 {
		return bodyPool.Get(64 << 10)
	}
	return bodyPool.Get(int(n))
}

// Observability instruments the proxy hot paths against the default obs
// registry. Counters are process-wide totals; per-proxy numbers stay
// available through CertCacheStats/ResumptionStats/ConnReuseStats.
var (
	mHandshakeOK     = obs.Default.Counter("mitm_handshakes_total", "result", "ok")
	mHandshakeFail   = obs.Default.Counter("mitm_handshakes_total", "result", "fail")
	mHsResumedClient = obs.Default.Counter("mitm_handshake_resumed_total", "side", "client")
	mHsResumedUp     = obs.Default.Counter("mitm_handshake_resumed_total", "side", "upstream")
	mConnReused      = obs.Default.Counter("mitm_conn_reuse_total", "result", "reused")
	mConnDialed      = obs.Default.Counter("mitm_conn_reuse_total", "result", "dialed")
	mCertHit         = obs.Default.Counter("mitm_cert_cache_total", "result", "hit")
	mCertMiss        = obs.Default.Counter("mitm_cert_cache_total", "result", "miss")
	mPinningFail     = obs.Default.Counter("mitm_pinning_failures_total")
	mReqHTTP         = obs.Default.Counter("mitm_requests_total", "scheme", "http")
	mReqHTTPS        = obs.Default.Counter("mitm_requests_total", "scheme", "https")
	mVetoed          = obs.Default.Counter("mitm_vetoed_total")
	mUpstreamErr     = obs.Default.Counter("mitm_upstream_errors_total")
	mBytesUp         = obs.Default.Counter("mitm_bytes_total", "dir", "up")
	mBytesDown       = obs.Default.Counter("mitm_bytes_total", "dir", "down")
	mActiveConns     = obs.Default.Gauge("mitm_active_conns")
	mReqLatency      = obs.Default.Histogram("mitm_request_duration_seconds", nil)

	mFlowsH1  = obs.Default.Counter("mitm_transport_flows_total", "transport", capture.TransportH1)
	mFlowsH2  = obs.Default.Counter("mitm_transport_flows_total", "transport", capture.TransportH2)
	mFlowsWS  = obs.Default.Counter("mitm_transport_flows_total", "transport", capture.TransportWS)
	mFlowsDoH = obs.Default.Counter("mitm_transport_flows_total", "transport", capture.TransportDoH)
)

// countTransportFlow bumps the per-transport flow family for one
// captured flow record.
func countTransportFlow(t string) {
	switch t {
	case capture.TransportH2:
		mFlowsH2.Inc()
	case capture.TransportWS:
		mFlowsWS.Inc()
	case capture.TransportDoH:
		mFlowsDoH.Inc()
	default:
		mFlowsH1.Inc()
	}
}

func init() {
	obs.Default.Help("mitm_handshakes_total", "Client-side TLS handshakes by result.")
	obs.Default.Help("mitm_handshake_resumed_total", "TLS handshakes completed via session resumption, by side (client = intercepted app, upstream = real origin).")
	obs.Default.Help("mitm_conn_reuse_total", "Upstream exchanges by connection source (reused = idle pool, dialed = fresh).")
	obs.Default.Help("mitm_cert_cache_total", "Leaf-certificate cache lookups by result.")
	obs.Default.Help("mitm_pinning_failures_total", "Handshakes rejected by certificate-pinning clients (paper footnote 3).")
	obs.Default.Help("mitm_requests_total", "Intercepted HTTP exchanges by scheme.")
	obs.Default.Help("mitm_bytes_total", "Request (up) and response (down) wire bytes through the proxy.")
	obs.Default.Help("mitm_active_conns", "Client connections currently being served.")
	obs.Default.Help("mitm_request_duration_seconds", "Wall-clock latency of one proxied exchange.")
	obs.Default.Help("mitm_transport_flows_total", "Captured flow records by data-plane transport (h1, h2, ws frame, doh message).")
}

// Addon observes and may mutate intercepted exchanges, in the manner of a
// mitmproxy addon. Request runs after the flow is populated and before
// the request is forwarded upstream (header mutations propagate).
// Response runs once per flow, when the flow is final: the proxy sets no
// field after it and sends the client nothing before it (a WebSocket
// upgrade's 101 excepted). resp is nil when the proxy answered itself
// (veto, injected fault, upstream error) and for WebSocket flows.
// Otherwise its status and headers are the upstream's, but resp.Body is
// already drained and closed: the proxy relays the body from its own
// buffer, and the capture plane records request bodies only.
type Addon interface {
	Request(f *capture.Flow, req *http.Request)
	Response(f *capture.Flow, resp *http.Response)
}

// Vetoer is an optional extension of Addon: a non-nil Veto blocks the
// exchange — the proxy answers the client with 403 and never contacts
// the destination. The countermeasure prototype (internal/blocker) uses
// it to drop native tracking requests at the network vantage point.
// Veto runs after every addon's Request hook.
type Vetoer interface {
	Veto(f *capture.Flow, req *http.Request) error
}

// Dialer opens upstream connections. The device network stack provides
// one bound to the proxy container's own UID, so upstream traffic is not
// re-diverted into the proxy.
type Dialer func(ctx context.Context, addr string) (net.Conn, error)

// Clock supplies flow timestamps; the simulation passes the virtual
// clock's Now.
type Clock func() time.Time

// Proxy is the transparent MITM proxy.
type Proxy struct {
	// CA signs the interception certificates.
	CA *pki.CA
	// Dial opens upstream connections.
	Dial Dialer
	// Now timestamps flows.
	Now Clock
	// Trace, when non-nil, hangs handshake/exchange spans off the active
	// visit span of the owning browser UID.
	Trace *obs.Tracer

	// mu guards the cert cache/flight maps and addon appends; the hot
	// accept/exchange paths read only atomics.
	mu        sync.Mutex
	addons    atomic.Pointer[[]Addon]
	certCache map[string]*tls.Certificate
	// certFlight dedupes concurrent cold-cache mints per host: the first
	// handshake to miss becomes the minter, later ones wait on its call.
	certFlight map[string]*certCall

	certHit, certMiss, hsFails atomic.Int64
	hsResumed, hsFull          atomic.Int64 // client-facing handshakes
	upResumed, upFull          atomic.Int64 // upstream handshakes
	connReused, connDialed     atomic.Int64 // upstream exchanges by conn source

	// serverTLS is the client-facing config template. Its session-ticket
	// keys are set once here so every per-connection clone shares them —
	// without that, each clone mints its own keys and no ticket issued on
	// one connection can ever resume on another.
	serverTLS *tls.Config
	// upstreamTLS is the upstream dial template; clones share its
	// ClientSessionCache, so repeat dials to a host resume.
	upstreamTLS *tls.Config
	// pool parks idle upstream connections between exchanges (nil when
	// keep-alive is disabled).
	pool *connpool.Pool

	// transports gates the data-plane protocols the proxy speaks; nil
	// means all. h1 is always on — it is the substrate every other
	// transport falls back to.
	transports map[string]bool

	upstreamRTT time.Duration
	faults      atomic.Pointer[faultsim.Injector]
}

// transportEnabled reports whether the proxy speaks transport t.
func (p *Proxy) transportEnabled(t string) bool {
	if p.transports == nil {
		return true
	}
	return p.transports[t]
}

// SetFaults installs (or clears, with nil) the fault injector consulted
// before TLS handshakes (tls_handshake / pin_reject), per proxied
// exchange (read_timeout / stream_reset / http_5xx / slow_response) and
// on idle-pool lookups (pool_poison).
func (p *Proxy) SetFaults(inj *faultsim.Injector) {
	if inj == nil {
		p.faults.Store(nil)
		if p.pool != nil {
			p.pool.SetFaultHook(nil)
		}
		return
	}
	p.faults.Store(inj)
	if p.pool != nil {
		p.pool.SetFaultHook(inj.PoolFault)
	}
}

func (p *Proxy) faultsInj() *faultsim.Injector { return p.faults.Load() }

// certCall is one in-flight leaf mint waiters block on.
type certCall struct {
	done chan struct{}
	cert *tls.Certificate
	err  error
}

// Config bundles proxy construction inputs.
type Config struct {
	CA            *pki.CA
	UpstreamRoots *tls.Config // TLS client config template for upstream dials
	Dial          Dialer
	Now           Clock
	// DisableCertCache turns off leaf-certificate caching (ablation).
	DisableCertCache bool
	// DisableKeepAlive turns off upstream connection reuse (ablation).
	DisableKeepAlive bool
	// DisableTLSResume turns off TLS session resumption on both sides of
	// the interception path (ablation; the determinism suite compares
	// resumed runs against this cold-handshake path).
	DisableTLSResume bool
	// Transports lists the enabled data-plane protocols
	// (capture.TransportH1 ... TransportDoH). Empty enables all; h1 is
	// always kept on. A disabled h2 drops the "h2" ALPN offer on both
	// sides so clients silently fall back to HTTP/1.1; a disabled ws
	// serves upgrade requests as plain (failing) HTTP; a disabled doh
	// stops tagging DNS-over-HTTPS messages as their own transport.
	Transports []string
	// UpstreamRTT models wide-area latency to the destination on the
	// wall clock, one sleep per network round trip: every forwarded
	// exchange pays one (request out, response back), and a fresh
	// upstream dial pays two more flights first (TCP connect, then the
	// TLS handshake for https) — which a pooled connection skips
	// entirely. The in-memory Internet delivers bytes instantly, which
	// leaves a simulated crawl purely CPU-bound — unlike the paper's
	// testbed, where page loads wait on a real network and connection
	// reuse plus a concurrent scheduler win by eliding and overlapping
	// those waits. Zero (the default) keeps the instant network.
	UpstreamRTT time.Duration
	// Trace receives per-exchange flow spans (may be nil).
	Trace *obs.Tracer
}

// New creates a proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.CA == nil || cfg.Dial == nil {
		return nil, errors.New("mitm: Config needs CA and Dial")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Proxy{CA: cfg.CA, Dial: cfg.Dial, Now: cfg.Now, Trace: cfg.Trace, upstreamRTT: cfg.UpstreamRTT}
	if len(cfg.Transports) > 0 {
		p.transports = make(map[string]bool, len(cfg.Transports)+1)
		for _, t := range cfg.Transports {
			p.transports[t] = true
		}
		p.transports[capture.TransportH1] = true
	}
	if !cfg.DisableCertCache {
		p.certCache = make(map[string]*tls.Certificate)
		p.certFlight = make(map[string]*certCall)
	}
	p.serverTLS = &tls.Config{}
	if p.transportEnabled(capture.TransportH2) {
		p.serverTLS.NextProtos = []string{h2.ProtoName, "http/1.1"}
	} else {
		p.serverTLS.NextProtos = []string{"http/1.1"}
	}
	if cfg.DisableTLSResume {
		p.serverTLS.SessionTicketsDisabled = true
	} else {
		var key [32]byte
		if _, err := rand.Read(key[:]); err != nil {
			return nil, fmt.Errorf("mitm: session ticket key: %w", err)
		}
		p.serverTLS.SetSessionTicketKeys([][32]byte{key})
	}
	if cfg.UpstreamRoots != nil {
		p.upstreamTLS = cfg.UpstreamRoots.Clone()
	} else {
		p.upstreamTLS = &tls.Config{}
	}
	if !cfg.DisableTLSResume {
		p.upstreamTLS.ClientSessionCache = tls.NewLRUClientSessionCache(256)
	}
	if !cfg.DisableKeepAlive {
		p.pool = connpool.New(connpool.Config{Name: "mitm_upstream", Now: cfg.Now})
	}
	return p, nil
}

// Use appends an addon to the chain. The chain is copy-on-write: the
// exchange hot path loads it with one atomic read.
func (p *Proxy) Use(a Addon) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var list []Addon
	if old := p.addons.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, a)
	p.addons.Store(&list)
}

func (p *Proxy) addonList() []Addon {
	if l := p.addons.Load(); l != nil {
		return *l
	}
	return nil
}

// CertCacheStats reports leaf-cache hits and misses (mints).
func (p *Proxy) CertCacheStats() (hits, misses int) {
	return int(p.certHit.Load()), int(p.certMiss.Load())
}

// HandshakeFailures counts client-side TLS handshakes that failed —
// certificate-pinning apps rejecting the minted certificate show up here.
func (p *Proxy) HandshakeFailures() int { return int(p.hsFails.Load()) }

// ResumptionStats reports TLS handshakes by side: client-facing
// handshakes resumed via session tickets vs full, and upstream
// handshakes resumed via the shared session cache vs full.
func (p *Proxy) ResumptionStats() (clientResumed, clientFull, upstreamResumed, upstreamFull int64) {
	return p.hsResumed.Load(), p.hsFull.Load(), p.upResumed.Load(), p.upFull.Load()
}

// ConnReuseStats reports upstream exchanges served over a pooled
// connection vs a fresh dial.
func (p *Proxy) ConnReuseStats() (reused, dialed int64) {
	return p.connReused.Load(), p.connDialed.Load()
}

// Close releases pooled upstream connections.
func (p *Proxy) Close() {
	if p.pool != nil {
		p.pool.CloseIdle()
	}
}

// Serve accepts and handles diverted connections until the listener
// closes. Each connection is handled (TLS handshake included) on its own
// goroutine, so one accept loop never serialises parallel clients.
func (p *Proxy) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go p.handleConn(conn)
	}
}

// originalDst recovers the pre-redirect destination, the in-memory
// SO_ORIGINAL_DST. Only connections that a REDIRECT verdict actually
// diverted count as transparent; anything else (a real TCP socket, or a
// direct dial to the proxy's own address) speaks explicit-proxy CONNECT.
func originalDst(c net.Conn) (addr string, uid int) {
	if mc, ok := c.(netsim.MetaConn); ok {
		m := mc.Meta()
		if m.Redirected {
			return m.OriginalDst, m.OwnerUID
		}
		return "", m.OwnerUID
	}
	return "", -1
}

func (p *Proxy) handleConn(client net.Conn) {
	defer client.Close()
	mActiveConns.Inc()
	defer mActiveConns.Dec()
	dst, uid := originalDst(client)

	br := bufio.NewReader(client)

	// Explicit-proxy mode: a plain-TCP client (no diversion metadata)
	// opens with an HTTP CONNECT naming its destination — the way curl
	// and real browsers speak to mitmproxy in regular mode. Transparent
	// clients skip this because their first byte is a TLS record (0x16)
	// or an ordinary request line.
	if dst == "" {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		switch {
		case req.Method == http.MethodConnect:
			connectDst := req.Host
			if !strings.Contains(connectDst, ":") {
				connectDst += ":443"
			}
			if _, err := fmt.Fprint(client, "HTTP/1.1 200 Connection Established\r\n\r\n"); err != nil {
				return
			}
			dst = connectDst
		case req.URL != nil && req.URL.IsAbs():
			// Absolute-form plain-HTTP proxying (curl's non-TLS mode).
			p.serveExplicitPlain(br, client, req, uid)
			return
		default:
			fmt.Fprint(client, "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n")
			return
		}
	}
	host, port, err := net.SplitHostPort(dst)
	if err != nil {
		return
	}

	first, err := br.Peek(1)
	if err != nil {
		return
	}

	if first[0] == 0x16 { // TLS ClientHello
		leafHost := host
		// Armed TLS faults (tls_handshake, pin_reject) abort the handshake
		// with a fatal alert, exactly like a pinning app slamming the door
		// on the MITM certificate. The fault fires from GetConfigForClient
		// — which runs on every ClientHello — not from certificate
		// minting, because a session-resuming handshake skips the
		// Certificate message entirely and would sail past a minting
		// failure.
		faultKind, tlsFault := p.faultsInj().TLSFault(uid, host)
		cfg := p.serverTLS.Clone()
		cfg.GetCertificate = func(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
			name := chi.ServerName
			if name == "" {
				name = leafHost
			}
			return p.leafFor(name)
		}
		if tlsFault {
			cfg.GetConfigForClient = func(chi *tls.ClientHelloInfo) (*tls.Config, error) {
				name := chi.ServerName
				if name == "" {
					name = leafHost
				}
				return nil, fmt.Errorf("mitm: injected %s for %s", faultKind, name)
			}
		}
		hsSpan := p.Trace.Active(uid).Child("mitm.handshake")
		hsSpan.SetAttr("host", host)
		tc := tls.Server(&peekedConn{Conn: client, r: br}, cfg)
		if err := tc.Handshake(); err != nil {
			p.hsFails.Add(1)
			mHandshakeFail.Inc()
			mPinningFail.Inc()
			hsSpan.SetAttr("result", "fail")
			hsSpan.End()
			return
		}
		mHandshakeOK.Inc()
		if tc.ConnectionState().DidResume {
			p.hsResumed.Add(1)
			mHsResumedClient.Inc()
		} else {
			p.hsFull.Add(1)
		}
		hsSpan.SetAttr("result", "ok")
		hsSpan.End()
		// ALPN dispatch: the negotiated protocol selects the framing the
		// rest of the connection speaks. h2 goes to the frame-level
		// server; everything else (explicit "http/1.1" or no ALPN) stays
		// on the keep-alive HTTP/1.1 loop.
		alpn := tc.ConnectionState().NegotiatedProtocol
		if alpn == h2.ProtoName {
			p.serveH2(tc, host, port, uid)
			return
		}
		p.serveHTTP(bufio.NewReader(tc), tc, "https", host, port, uid, alpn)
		return
	}
	p.serveHTTP(br, client, "http", host, port, uid, "")
}

// serveExplicitPlain handles absolute-form plain-HTTP requests from an
// explicit-proxy client, one destination per request.
func (p *Proxy) serveExplicitPlain(br *bufio.Reader, client net.Conn, first *http.Request, uid int) {
	req := first
	cio := &h1IO{conn: client}
	for {
		host := req.URL.Hostname()
		port := req.URL.Port()
		if port == "" {
			port = "80"
		}
		req.Host = req.URL.Host
		closeAfter := req.Close || strings.EqualFold(req.Header.Get("Connection"), "close")
		if !p.serveOne(cio, req, "http", host, port, uid, capture.TransportH1, "") || closeAfter {
			return
		}
		var err error
		req, err = http.ReadRequest(br)
		if err != nil || req.URL == nil || !req.URL.IsAbs() {
			return
		}
	}
}

// peekedConn replays bytes already buffered by the peeking reader.
type peekedConn struct {
	net.Conn
	r *bufio.Reader
}

func (pc *peekedConn) Read(b []byte) (int, error) { return pc.r.Read(b) }

// leafFor returns (minting if needed) the interception certificate for a
// host. Concurrent cold-cache handshakes for the same host are
// singleflighted: one caller mints (a cache miss), the rest wait for it
// and count as hits — they were served without a signing operation.
func (p *Proxy) leafFor(host string) (*tls.Certificate, error) {
	if p.certCache == nil {
		// Cache-disabled ablation: no dedup either, every handshake pays
		// the full mint — that per-mint cost is what the ablation measures.
		p.certMiss.Add(1)
		mCertMiss.Inc()
		cert, err := p.CA.Issue(host)
		if err != nil {
			return nil, fmt.Errorf("mitm: mint certificate for %s: %w", host, err)
		}
		return &cert, nil
	}
	p.mu.Lock()
	if c, ok := p.certCache[host]; ok {
		p.mu.Unlock()
		p.certHit.Add(1)
		mCertHit.Inc()
		return c, nil
	}
	if call, ok := p.certFlight[host]; ok {
		p.mu.Unlock()
		p.certHit.Add(1)
		mCertHit.Inc()
		<-call.done
		return call.cert, call.err
	}
	call := &certCall{done: make(chan struct{})}
	p.certFlight[host] = call
	p.mu.Unlock()
	p.certMiss.Add(1)
	mCertMiss.Inc()

	cert, err := p.CA.Issue(host)
	if err != nil {
		call.err = fmt.Errorf("mitm: mint certificate for %s: %w", host, err)
	} else {
		call.cert = &cert
	}
	p.mu.Lock()
	if call.err == nil {
		p.certCache[host] = call.cert
	}
	delete(p.certFlight, host)
	p.mu.Unlock()
	close(call.done)
	return call.cert, call.err
}

// serveHTTP handles a keep-alive sequence of HTTP/1.1 requests on one
// client connection. A WebSocket upgrade request hands the connection
// over to the frame-relay path and ends the HTTP loop.
func (p *Proxy) serveHTTP(br *bufio.Reader, client net.Conn, scheme, host, port string, uid int, alpn string) {
	cio := &h1IO{conn: client}
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return // EOF or malformed: drop the connection
		}
		if p.transportEnabled(capture.TransportWS) && ws.IsUpgradeRequest(req) {
			p.serveWS(client, br, req, scheme, host, port, uid, alpn)
			return
		}
		closeAfter := req.Close || strings.EqualFold(req.Header.Get("Connection"), "close")
		if !p.serveOne(cio, req, scheme, host, port, uid, capture.TransportH1, alpn) || closeAfter {
			return
		}
	}
}

// serveH2 handles one h2-negotiated client connection: sequential
// streams, each one exchange through the same addon/forward path as h1.
func (p *Proxy) serveH2(tc net.Conn, host, port string, uid int) {
	srv, err := h2.NewServer(tc)
	if err != nil {
		return
	}
	cio := &h2IO{srv: srv}
	for {
		hreq, err := srv.ReadRequest()
		if err != nil {
			return
		}
		req := hreq.HTTPRequest()
		req.RemoteAddr = tc.RemoteAddr().String()
		cio.stream = hreq.Stream
		if !p.serveOne(cio, req, "https", host, port, uid, capture.TransportH2, h2.ProtoName) {
			return
		}
	}
}

// clientIO is the client-facing write half of one connection, so
// serveOne stays framing-agnostic: h1 writes wire text, h2 writes frames
// on the exchange's stream. encode only renders; every write happens
// after the exchange's Response hooks.
type clientIO interface {
	// encode renders a response for send and returns its wire size.
	encode(resp *http.Response, body []byte) int
	// send writes the response encode rendered.
	send() error
	// reset aborts the exchange abruptly for the stream_reset fault: h1
	// promises body bytes and drops the connection, h2 sends RST_STREAM.
	reset()
}

// h1IO answers the exchanges of an HTTP/1.1 client connection.
type h1IO struct {
	conn net.Conn
	head *bytes.Buffer // the head encode rendered, pooled until send
	body []byte
}

func (c *h1IO) encode(resp *http.Response, body []byte) int {
	c.head = bodyPool.Get(512)
	c.body = body
	writeResponseHead(c.head, resp, len(body))
	return c.head.Len() + len(body)
}

func (c *h1IO) send() error {
	_, err := c.conn.Write(c.head.Bytes())
	if err == nil {
		_, err = c.conn.Write(c.body)
	}
	bodyPool.Put(c.head)
	c.head, c.body = nil, nil
	return err
}

func (c *h1IO) reset() {
	// Promise 1000 body bytes, deliver a few, drop the connection: the
	// client's body read dies with an unexpected EOF.
	fmt.Fprint(c.conn, "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\npartial")
}

// h2IO answers the current stream of an h2 client connection.
type h2IO struct {
	srv    *h2.Server
	stream uint32
	resp   h2.Response // what encode rendered, until send
}

func (c *h2IO) encode(resp *http.Response, body []byte) int {
	c.resp = h2.EncodeResponse(resp.StatusCode, resp.Header, body)
	return c.resp.Size
}

func (c *h2IO) send() error { return c.srv.WriteResponse(c.stream, c.resp) }

func (c *h2IO) reset() { c.srv.WriteRST(c.stream) }

// sendText sends the proxy's own short plain-text answer (veto, injected
// fault, upstream error) and reports whether it was written.
func sendText(cio clientIO, status int, text string) bool {
	cio.encode(&http.Response{StatusCode: status, Header: http.Header{"Content-Type": {"text/plain"}}}, []byte(text))
	return cio.send() == nil
}

// finish runs the Response hooks of a final flow; after it the proxy
// only releases its reference.
func finish(addons []Addon, f *capture.Flow, resp *http.Response) {
	for _, a := range addons {
		a.Response(f, resp)
	}
}

// serveWS terminates an intercepted WebSocket on both sides: it accepts
// the client's upgrade, opens its own upstream WebSocket over a fresh
// (never pooled) connection, and relays messages strictly sequentially
// — one client frame forwarded, one upstream ack relayed back. The
// upgrade handshake is captured as a Status-101 flow once the client's
// handshake succeeded (a rejected upgrade keeps Status 0 and its Err);
// every client-originated frame becomes its own flow record (Method
// "WS", body = frame payload) so frame-borne telemetry is visible to the
// same analyses as any HTTP beacon. A frame's flow is finished when the
// upstream ack is in, before the ack is relayed back.
func (p *Proxy) serveWS(client net.Conn, br *bufio.Reader, req *http.Request, scheme, host, port string, uid int, alpn string) {
	upFlow, reqBody := p.buildFlow(req, scheme, host, uid, capture.TransportWS, alpn)
	defer upFlow.Release()
	defer bodyPool.Put(reqBody)
	addons := p.addonList()
	for _, a := range addons {
		a.Request(upFlow, req)
	}

	up, err := p.dialWS(req, scheme, host, port)
	var cc *ws.Conn
	if err != nil {
		mUpstreamErr.Inc()
		upFlow.Status = http.StatusBadGateway
	} else if cc, err = ws.Accept(client, br, req); err == nil {
		upFlow.Status = http.StatusSwitchingProtocols
	}
	if err != nil {
		upFlow.Err = err.Error()
	}
	finish(addons, upFlow, nil)
	if up == nil {
		sendText(&h1IO{conn: client}, http.StatusBadGateway, "panoptes-mitm: upstream error: "+err.Error())
		return
	}
	defer up.Close()
	if cc == nil {
		return
	}
	defer cc.Close()

	for {
		op, msg, err := cc.ReadMessage()
		if err != nil {
			return // client closed the channel; the deferred closes tear down upstream
		}
		ff := p.buildWSFrameFlow(req, scheme, host, uid, msg, alpn)
		for _, a := range addons {
			a.Request(ff, req)
		}
		var ackOp ws.Opcode
		var ack []byte
		if err = up.WriteMessage(op, msg); err == nil {
			ackOp, ack, err = up.ReadMessage()
		}
		if err != nil {
			ff.Err = err.Error()
		} else {
			ff.Status = http.StatusOK
			ff.RespBytes = len(ack)
		}
		finish(addons, ff, nil)
		ff.Release()
		if err != nil || cc.WriteMessage(ackOp, ack) != nil {
			return
		}
	}
}

// dialWS opens the upstream half of an intercepted WebSocket. WebSocket
// upstreams speak h1 framing under the upgrade — never offer h2 — and
// the long-lived connection is not pool material, so it is always a
// fresh dial.
func (p *Proxy) dialWS(req *http.Request, scheme, host, port string) (*ws.Conn, error) {
	authority, dialAddr := upstreamAddr(req, scheme, host, port)
	upConn, _, err := p.dialUpstream(scheme, dialAddr, []string{"http/1.1"})
	if err != nil {
		return nil, fmt.Errorf("mitm: upstream %s: %w", authority, err)
	}
	wsScheme := "ws"
	if scheme == "https" {
		wsScheme = "wss"
	}
	up, err := ws.Dial(wsScheme+"://"+authority+req.URL.RequestURI(), func(string) (net.Conn, error) {
		return upConn, nil
	})
	if err != nil {
		upConn.Close()
		return nil, fmt.Errorf("mitm: upstream %s: %w", authority, err)
	}
	return up, nil
}

// buildWSFrameFlow populates a pooled Flow for one client-originated
// WebSocket frame. The frame rides the upgrade request's URL (that is
// the endpoint the payload travels to); Method "WS" distinguishes frame
// records from the upgrade GET.
func (p *Proxy) buildWSFrameFlow(req *http.Request, scheme, host string, uid int, payload []byte, alpn string) *capture.Flow {
	f := p.newFlow(req, "WS", scheme, host, uid, capture.TransportWS, alpn)
	f.Headers = cloneHeaderInto(f.Headers, nil)
	f.Body = capBody(f.Body, payload)
	f.ReqBytes = len(payload) + 6 // payload + frame header incl. mask key
	return f
}

// serveOne processes a single exchange; it reports whether the client
// connection can be reused. answer sets the flow's last fields, the
// Response hooks run, and only then does the client get its answer.
func (p *Proxy) serveOne(cio clientIO, req *http.Request, scheme, host, port string, uid int, transport, alpn string) bool {
	wallStart := time.Now()
	defer func() { mReqLatency.Observe(time.Since(wallStart).Seconds()) }()
	if scheme == "https" {
		mReqHTTPS.Inc()
	} else {
		mReqHTTP.Inc()
	}
	sp := p.Trace.Active(uid).Child("mitm.exchange")
	defer sp.End()
	sp.SetAttr("host", host)
	sp.SetAttr("method", req.Method)

	flow, reqBody := p.buildFlow(req, scheme, host, uid, transport, alpn)
	sp.SetAttr("transport", flow.Transport)
	// The producer reference: released when the exchange ends. Every
	// retainer that outlives the exchange (commit gate, store,
	// export batches) holds its own reference by then.
	defer flow.Release()
	// The replay reader handed to forward aliases the request body
	// buffer; recycle it only once the exchange is over.
	defer bodyPool.Put(reqBody)
	mBytesUp.Add(int64(flow.ReqBytes))

	addons := p.addonList()
	splitSpan := sp.Child("taint.split")
	for _, a := range addons {
		a.Request(flow, req)
	}
	splitSpan.SetAttr("origin", string(flow.Origin))
	splitSpan.End()

	resp, respBody, own := p.answer(cio, flow, req, addons, sp, scheme, host, port, uid)
	finish(addons, flow, resp)
	if own != nil {
		return own()
	}
	err := cio.send()
	bodyPool.Put(respBody)
	return err == nil
}

// answer runs the veto pass, armed flow faults and the upstream round
// trip, and sets the flow's final Status, Err and RespBytes without
// writing to the client. It returns the upstream response, rendered by
// cio for send, and its pooled body; or own, the proxy's own answer,
// which reports whether the client connection can be reused.
func (p *Proxy) answer(cio clientIO, flow *capture.Flow, req *http.Request, addons []Addon, sp *obs.Span, scheme, host, port string, uid int) (resp *http.Response, body *bytes.Buffer, own func() bool) {
	// Veto pass: any vetoing addon blocks the exchange at the proxy.
	for _, a := range addons {
		v, ok := a.(Vetoer)
		if !ok {
			continue
		}
		if err := v.Veto(flow, req); err != nil {
			mVetoed.Inc()
			sp.SetAttr("result", "vetoed")
			flow.Status = http.StatusForbidden
			flow.Err = "vetoed: " + err.Error()
			return nil, nil, func() bool { return sendText(cio, http.StatusForbidden, "panoptes-mitm: blocked: "+err.Error()) }
		}
	}

	// Armed flow faults fire after the Request hooks have tagged the flow
	// with its attempt (so a failed attempt's traffic is quarantined by
	// that tag when it commits) but before forwarding, standing in for a
	// misbehaving origin.
	if kind, ok := p.faultsInj().FlowFault(uid, flow.Host); ok {
		switch kind {
		case faultsim.SlowResponse:
			// Benign: the origin answers, just slowly (wall clock, like
			// UpstreamRTT). The exchange then proceeds normally.
			time.Sleep(25 * time.Millisecond)
		case faultsim.HTTP5xx:
			sp.SetAttr("result", "fault:http_5xx")
			flow.Status = http.StatusInternalServerError
			flow.Err = "faultsim: injected http_5xx"
			return nil, nil, func() bool {
				sendText(cio, http.StatusInternalServerError, "panoptes-faultsim: injected 500")
				return false
			}
		case faultsim.StreamReset:
			sp.SetAttr("result", "fault:stream_reset")
			flow.Status = http.StatusOK
			flow.Err = "faultsim: injected stream_reset"
			return nil, nil, func() bool { cio.reset(); return false }
		default: // faultsim.ReadTimeout
			// The origin never answers: no response bytes, connection
			// dropped, so the client errors out reading the response.
			sp.SetAttr("result", "fault:read_timeout")
			flow.Err = "faultsim: injected read_timeout"
			return nil, nil, func() bool { return false }
		}
	}

	fwdSpan := sp.Child("mitm.forward")
	resp, body, err := p.forward(req, scheme, host, port)
	fwdSpan.End()
	if err != nil {
		mUpstreamErr.Inc()
		sp.SetAttr("result", "upstream-error")
		flow.Status = http.StatusBadGateway
		flow.Err = err.Error()
		return nil, nil, func() bool {
			sendText(cio, http.StatusBadGateway, "panoptes-mitm: upstream error: "+err.Error())
			return false
		}
	}
	flow.Status = resp.StatusCode
	flow.RespBytes = cio.encode(resp, body.Bytes())
	mBytesDown.Add(int64(flow.RespBytes))
	sp.SetAttr("status", fmt.Sprint(resp.StatusCode))
	return resp, body, nil
}

// dohContentType is the RFC 8484 media type; a request carrying or
// accepting it is a DNS-over-HTTPS message regardless of the connection
// framing underneath.
const dohContentType = "application/dns-message"

// isDoHRequest reports whether req is a DNS-over-HTTPS exchange (POST
// body or GET accepting a DNS message).
func isDoHRequest(req *http.Request) bool {
	return req.Header.Get("Content-Type") == dohContentType ||
		req.Header.Get("Accept") == dohContentType
}

// buildFlow populates a pooled Flow from the parsed request, consuming
// the body into a pooled scratch buffer and re-buffering it for replay.
// The caller owns the flow's producer reference and must return the
// scratch buffer (nil when the request has no body) to bodyPool after
// the exchange — the replay reader aliases it. transport is the framing
// of the client connection; a DoH message is re-tagged as its own
// transport (the framing stays visible in ALPN).
func (p *Proxy) buildFlow(req *http.Request, scheme, host string, uid int, transport, alpn string) (*capture.Flow, *bytes.Buffer) {
	if p.transportEnabled(capture.TransportDoH) && isDoHRequest(req) {
		transport = capture.TransportDoH
	}
	f := p.newFlow(req, req.Method, scheme, host, uid, transport, alpn)
	f.Headers = cloneHeaderInto(f.Headers, req.Header)

	// Wire-size estimate: request line + headers + body.
	size := len(req.Method) + requestURILen(req.URL) + len("HTTP/1.1") + 4
	for k, vs := range req.Header {
		for _, v := range vs {
			size += len(k) + len(v) + 4
		}
	}
	var bb *bytes.Buffer
	if req.Body != nil && req.ContentLength != 0 {
		bb = getBody(req.ContentLength)
		_, _ = io.Copy(bb, io.LimitReader(req.Body, 10<<20))
		req.Body.Close()
		body := bb.Bytes()
		size += len(body)
		f.Body = capBody(f.Body, body)
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	f.ReqBytes = size
	return f, bb
}

// newFlow acquires a pooled Flow stamped with its ID, capture time, UID
// and request line: the fields every record of an exchange shares.
func (p *Proxy) newFlow(req *http.Request, method, scheme, host string, uid int, transport, alpn string) *capture.Flow {
	f := capture.AcquireFlow()
	f.ID = capture.NextFlowID()
	f.Time = p.Now()
	f.BrowserUID = uid
	f.Method = method
	f.Scheme = scheme
	f.Transport = transport
	f.ALPN = alpn
	f.Host = hostOnly(req, host)
	f.Path = req.URL.Path
	f.RawQuery = req.URL.RawQuery
	countTransportFlow(transport)
	return f
}

// capBody stores the capture-capped prefix of body in dst's storage.
func capBody(dst, body []byte) []byte {
	return append(dst[:0], body[:min(len(body), capture.MaxBodyCapture)]...)
}

// requestURILen estimates the wire length of the request-URI without
// materialising it (http.Request.RequestURI allocates).
func requestURILen(u *url.URL) int {
	if u.Opaque != "" {
		return len(u.Opaque)
	}
	n := len(u.RawPath)
	if n == 0 {
		n = len(u.Path)
	}
	if n == 0 {
		n = 1 // bare "/"
	}
	if u.ForceQuery || u.RawQuery != "" {
		n += 1 + len(u.RawQuery)
	}
	return n
}

// cloneHeaderInto copies src into dst (reusing dst's map and making one
// backing allocation for all values, like http.Header.Clone). dst may be
// nil or hold stale keys from a recycled flow; it is returned cleared
// and repopulated.
func cloneHeaderInto(dst, src http.Header) http.Header {
	if dst == nil {
		dst = make(http.Header, len(src))
	} else {
		for k := range dst {
			delete(dst, k)
		}
	}
	n := 0
	for _, vs := range src {
		n += len(vs)
	}
	if n == 0 {
		return dst
	}
	sv := make([]string, n)
	for k, vs := range src {
		m := copy(sv, vs)
		dst[k] = sv[:m:m]
		sv = sv[m:]
	}
	return dst
}

func hostOnly(req *http.Request, fallback string) string {
	h := req.Host
	if h == "" {
		h = fallback
	}
	if strings.Contains(h, ":") {
		if only, _, err := net.SplitHostPort(h); err == nil {
			return only
		}
	}
	return h
}

// forward sends the request upstream over a pooled or freshly dialed
// connection and returns the parsed response with its body fully read
// into a pooled buffer (resp.Body is drained). The caller returns the
// buffer to bodyPool once the response is written out.
//
// Pool keys embed the negotiated ALPN (scheme|alpn|addr) so h2 and h1
// connections never cross: an idle h2 entry carries its *h2.Client
// session, an h1 entry its buffered reader. A lookup probes the h2 key
// first (when h2 is enabled) and falls back to h1; a fresh dial offers
// both protocols and files the connection under whichever the origin
// picked.
func (p *Proxy) forward(req *http.Request, scheme, host, port string) (*http.Response, *bytes.Buffer, error) {
	authority, dialAddr := upstreamAddr(req, scheme, host, port)

	// Buffer the request body once; every attempt (h1 serialisation or
	// h2 RoundTrip) replays the same bytes.
	var reqBody []byte
	if req.Body != nil && req.ContentLength > 0 {
		reqBody, _ = io.ReadAll(req.Body)
		req.Body.Close()
		req.Body = nil
	}

	if p.upstreamRTT > 0 {
		time.Sleep(p.upstreamRTT)
	}

	offerH2 := scheme == "https" && p.transportEnabled(capture.TransportH2)
	keyH1 := scheme + "|" + capture.TransportH1 + "|" + dialAddr
	keyH2 := scheme + "|" + capture.TransportH2 + "|" + dialAddr

	var wb *bytes.Buffer // lazily serialised h1 request image
	defer func() {
		if wb != nil {
			bodyPool.Put(wb)
		}
	}()

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		var pc connpool.Entry
		key := keyH1
		proto := capture.TransportH1
		reused := false
		if p.pool != nil && attempt == 0 {
			if offerH2 {
				if pc, reused = p.pool.Get(keyH2); reused {
					proto, key = capture.TransportH2, keyH2
				}
			}
			if !reused {
				pc, reused = p.pool.Get(keyH1)
			}
		}
		if reused {
			p.connReused.Add(1)
			mConnReused.Inc()
		} else {
			var protos []string
			if offerH2 {
				protos = []string{h2.ProtoName, "http/1.1"}
			}
			conn, negotiated, err := p.dialUpstream(scheme, dialAddr, protos)
			if err != nil {
				return nil, nil, fmt.Errorf("mitm: upstream %s: %w", authority, err)
			}
			p.connDialed.Add(1)
			mConnDialed.Inc()
			if negotiated == h2.ProtoName {
				hc, err := h2.NewClient(conn)
				if err != nil {
					conn.Close()
					return nil, nil, fmt.Errorf("mitm: upstream %s: %w", authority, err)
				}
				pc = connpool.Entry{Conn: conn, Session: hc}
				proto, key = capture.TransportH2, keyH2
			} else {
				pc = connpool.Entry{Conn: conn, R: bufio.NewReader(conn)}
			}
		}
		var (
			resp *http.Response
			bb   *bytes.Buffer
			err  error
		)
		if proto == capture.TransportH2 {
			resp, bb, err = p.exchangeH2(pc, key, req, reqBody)
		} else {
			if wb == nil {
				wb = bodyPool.Get(512)
				writeRequest(wb, req, authority, reqBody)
			}
			resp, bb, err = p.exchange(pc, key, wb.Bytes(), req)
		}
		if err != nil {
			if reused {
				// A pooled connection can die between exchanges (origin
				// idle timeout, injected pool poison): retry once on a
				// fresh dial before reporting the origin unreachable.
				lastErr = err
				continue
			}
			return nil, nil, fmt.Errorf("mitm: upstream %s: %w", authority, err)
		}
		return resp, bb, nil
	}
	return nil, nil, fmt.Errorf("mitm: upstream %s: %w", authority, lastErr)
}

// exchange performs one write-request/read-response round trip on pc,
// returning the connection to the pool when the response permits reuse.
func (p *Proxy) exchange(pc connpool.Entry, key string, raw []byte, req *http.Request) (*http.Response, *bytes.Buffer, error) {
	if _, err := pc.Conn.Write(raw); err != nil {
		pc.Conn.Close()
		return nil, nil, err
	}
	resp, err := http.ReadResponse(pc.R, req)
	if err != nil {
		pc.Conn.Close()
		return nil, nil, err
	}
	bb, err := readBody(resp)
	if err != nil {
		pc.Conn.Close()
		return nil, nil, err
	}
	if p.pool == nil || resp.Close || !resp.ProtoAtLeast(1, 1) || !p.pool.Put(key, pc.Conn, pc.R) {
		pc.Conn.Close()
	}
	return resp, bb, nil
}

// readBody drains and closes resp's body into a pooled buffer; resp.Body
// is spent afterwards.
func readBody(resp *http.Response) (*bytes.Buffer, error) {
	bb := getBody(resp.ContentLength)
	if _, err := io.Copy(bb, io.LimitReader(resp.Body, 64<<20)); err != nil {
		bodyPool.Put(bb)
		return nil, fmt.Errorf("read body: %w", err)
	}
	resp.Body.Close()
	return bb, nil
}

// exchangeH2 performs one round trip on a pooled h2 upstream session.
// h2 connections are always reusable after a clean exchange — the
// session (with its stream counter) travels back into the pool with the
// connection.
func (p *Proxy) exchangeH2(pc connpool.Entry, key string, req *http.Request, body []byte) (*http.Response, *bytes.Buffer, error) {
	hc, _ := pc.Session.(*h2.Client)
	if hc == nil {
		pc.Conn.Close()
		return nil, nil, errors.New("mitm: pooled h2 entry without session")
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	resp, err := hc.RoundTrip(req)
	if err != nil {
		pc.Conn.Close()
		return nil, nil, err
	}
	bb, err := readBody(resp)
	if err != nil {
		pc.Conn.Close()
		return nil, nil, err
	}
	if p.pool == nil || !p.pool.PutEntry(key, pc) {
		pc.Conn.Close()
	}
	return resp, bb, nil
}

// dialUpstream opens (and, for https, handshakes) a fresh upstream
// connection, offering protos via ALPN and reporting what the origin
// negotiated ("" for cleartext or no ALPN). The upstream TLS template
// carries a shared session cache, so repeat dials to a host resume
// instead of re-handshaking.
func (p *Proxy) dialUpstream(scheme, addr string, protos []string) (net.Conn, string, error) {
	if p.upstreamRTT > 0 {
		time.Sleep(p.upstreamRTT) // TCP connect flight
	}
	raw, err := p.Dial(context.Background(), addr)
	if err != nil {
		return nil, "", err
	}
	if scheme != "https" {
		return raw, "", nil
	}
	host, _, _ := net.SplitHostPort(addr)
	tcfg := p.upstreamTLS.Clone()
	tcfg.ServerName = host
	tcfg.NextProtos = protos
	tc := tls.Client(raw, tcfg)
	if p.upstreamRTT > 0 {
		time.Sleep(p.upstreamRTT) // TLS handshake flight (1-RTT, full or resumed)
	}
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, "", fmt.Errorf("handshake with %s: %w", addr, err)
	}
	if tc.ConnectionState().DidResume {
		p.upResumed.Add(1)
		mHsResumedUp.Inc()
	} else {
		p.upFull.Add(1)
	}
	return tc, tc.ConnectionState().NegotiatedProtocol, nil
}

// writeRequest serialises req into buf as an origin-form HTTP/1.1
// request. Hop-by-hop headers are dropped — the upstream connection's
// keep-alive is the pool's business, not the client's — and Host and
// Content-Length are owned by the proxy. body is the request body
// forward buffered once for all attempts (nil for bodyless requests).
func writeRequest(buf *bytes.Buffer, req *http.Request, authority string, body []byte) {
	buf.WriteString(req.Method)
	buf.WriteByte(' ')
	if req.URL.Opaque != "" {
		buf.WriteString(req.URL.Opaque)
	} else {
		path := req.URL.EscapedPath()
		if path == "" {
			path = "/"
		}
		buf.WriteString(path)
		if req.URL.ForceQuery || req.URL.RawQuery != "" {
			buf.WriteByte('?')
			buf.WriteString(req.URL.RawQuery)
		}
	}
	buf.WriteString(" HTTP/1.1\r\nHost: ")
	buf.WriteString(authority)
	buf.WriteString("\r\n")
	for k, vs := range req.Header {
		if hopByHop(k) || k == "Host" || k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			buf.WriteString(k)
			buf.WriteString(": ")
			buf.WriteString(v)
			buf.WriteString("\r\n")
		}
	}
	if len(body) > 0 {
		var tmp [20]byte
		buf.WriteString("Content-Length: ")
		buf.Write(strconv.AppendInt(tmp[:0], int64(len(body)), 10))
		buf.WriteString("\r\n\r\n")
		buf.Write(body)
	} else {
		buf.WriteString("\r\n")
	}
}

// hopByHop reports whether a canonical header name is connection-scoped
// (RFC 7230 §6.1) and must not travel across the proxy.
func hopByHop(k string) bool {
	switch k {
	case "Connection", "Proxy-Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// upstreamAddr derives an exchange's upstream authority (the Host the
// origin sees) and dial address from the request's Host and the
// connection's original destination.
func upstreamAddr(req *http.Request, scheme, host, port string) (authority, dialAddr string) {
	authority = req.Host
	if authority == "" {
		authority = net.JoinHostPort(host, port)
	} else if !strings.Contains(authority, ":") && !isDefaultPort(scheme, port) {
		authority = net.JoinHostPort(authority, port)
	}
	dialAddr = authority
	if !strings.Contains(dialAddr, ":") {
		dialAddr = net.JoinHostPort(dialAddr, port) // port is the scheme's default here
	}
	return authority, dialAddr
}

func isDefaultPort(scheme, port string) bool {
	return (scheme == "http" && port == "80") || (scheme == "https" && port == "443")
}

// writeResponseHead serialises an HTTP/1.1 response head for a body of
// n bytes into hb. Headers go out in map order — the head's length
// (part of what flow.RespBytes records) is order-independent, so flows
// stay deterministic.
func writeResponseHead(hb *bytes.Buffer, resp *http.Response, n int) {
	var tmp [20]byte
	hb.WriteString("HTTP/1.1 ")
	hb.Write(strconv.AppendInt(tmp[:0], int64(resp.StatusCode), 10))
	hb.WriteByte(' ')
	hb.WriteString(http.StatusText(resp.StatusCode))
	hb.WriteString("\r\n")
	for k, vs := range resp.Header {
		if k == "Content-Length" || hopByHop(k) {
			continue
		}
		for _, v := range vs {
			hb.WriteString(k)
			hb.WriteString(": ")
			hb.WriteString(v)
			hb.WriteString("\r\n")
		}
	}
	hb.WriteString("Content-Length: ")
	hb.Write(strconv.AppendInt(tmp[:0], int64(n), 10))
	hb.WriteString("\r\n\r\n")
}

// Package vendorsim hosts the vendor-side backends the browsers' native
// services talk to: Yandex's safe-browsing and visit-reporting APIs (RU),
// QQ's report collector (CN), UC International's injected-script and
// geolocation beacon servers (CA), Opera's Sitecheck / news feed / OLeads
// ad SDK, Microsoft's Bing API and telemetry, Facebook's Graph API, the
// Cloudflare and Google DoH resolvers, and a generic update/telemetry
// endpoint per vendor.
//
// Every backend keeps a request log, so leak findings from the Panoptes
// capture databases can be cross-checked against what the remote server
// actually received — including that servers in RU, CN and CA received
// full browsing histories from an EU vantage point (§3.4).
package vendorsim

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"panoptes/internal/dnssim"
	"panoptes/internal/h2"
	"panoptes/internal/netsim"
	"panoptes/internal/pki"
	"panoptes/internal/ws"
)

// LoggedRequest is one request a backend received.
type LoggedRequest struct {
	Time   time.Time
	Method string
	Path   string
	Query  string
	Body   string
}

// Backend is one hosted vendor endpoint.
type Backend struct {
	Host    string
	Country string

	mu   sync.Mutex
	reqs []LoggedRequest
}

// Requests returns a copy of the log.
func (b *Backend) Requests() []LoggedRequest {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]LoggedRequest, len(b.reqs))
	copy(out, b.reqs)
	return out
}

// Count returns the number of requests received.
func (b *Backend) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.reqs)
}

// recordFrame logs one WebSocket frame payload delivered to the
// backend's push endpoint, alongside the HTTP request log.
func (b *Backend) recordFrame(now func() time.Time, path string, payload []byte) {
	lr := LoggedRequest{Time: now(), Method: "WS", Path: path, Body: string(payload)}
	b.mu.Lock()
	b.reqs = append(b.reqs, lr)
	b.mu.Unlock()
}

// record logs a request and returns it.
func (b *Backend) record(r *http.Request, now func() time.Time) LoggedRequest {
	body := ""
	if r.Body != nil {
		data, _ := io.ReadAll(io.LimitReader(r.Body, 64*1024))
		body = string(data)
	}
	lr := LoggedRequest{
		Time: now(), Method: r.Method, Path: r.URL.Path,
		Query: r.URL.RawQuery, Body: body,
	}
	b.mu.Lock()
	b.reqs = append(b.reqs, lr)
	b.mu.Unlock()
	return lr
}

// hostSpec describes a backend to bring up.
type hostSpec struct {
	host    string
	country string
}

// backendHosts is every vendor endpoint and its hosting country. The
// countries matter: §3.4 geolocates the phone-home receivers.
var backendHosts = []hostSpec{
	// Yandex — Russia.
	{"sba.yandex.net", "RU"},
	{"api.browser.yandex.ru", "RU"},
	{"mc.yandex.ru", "RU"},
	{"favicon.yandex.net", "RU"},
	{"browser-updates.yandex.net", "RU"},
	{"translate.yandex.net", "RU"},
	{"suggest.yandex.net", "RU"},
	{"push.yandex.ru", "RU"},
	{"zen.yandex.ru", "RU"},
	{"startpage.yandex.com", "RU"},
	{"adfox.ru", "RU"},
	// QQ (Tencent) — China.
	{"wup.browser.qq.com", "CN"},
	{"cloud.browser.qq.com", "CN"},
	{"mtt.browser.qq.com", "CN"},
	{"res.imtt.qq.com", "CN"},
	{"pms.mb.qq.com", "CN"},
	{"cdn1.browser.qq.com", "CN"},
	// UC International — Canada.
	{"ucgjs.ucweb.com", "CA"},
	{"gjapi.ucweb.com", "CA"},
	{"puds.ucweb.com", "CA"},
	// Opera — Norway (ad SDK backend s-odx.oleads.com hosted in the US).
	{"sitecheck2.opera.com", "NO"},
	{"news.opera-api.com", "NO"},
	{"autoupdate.geo.opera.com", "NO"},
	{"crashstats-collector.opera.com", "NO"},
	{"exchange.opera.com", "NO"},
	{"cdn.opera-api.com", "NO"},
	{"features.opera-api.com", "NO"},
	{"sync.opera.com", "NO"},
	{"push.opera.com", "NO"},
	{"update.opera.com", "NO"},
	{"suggestions.opera.com", "NO"},
	{"thumbnails.opera.com", "NO"},
	{"s-odx.oleads.com", "US"},
	// Microsoft / Edge — United States.
	{"api.bing.com", "US"},
	{"browser.events.data.msn.com", "US"},
	{"msn.com", "US"},
	{"edge.microsoft.com", "US"},
	{"config.edge.skype.com", "US"},
	{"ntp.msn.com", "US"},
	{"assets.msn.com", "US"},
	{"arc.msn.com", "US"},
	{"ris.api.iris.microsoft.com", "US"},
	{"mobile.events.data.microsoft.com", "US"},
	{"vortex.data.microsoft.com", "US"},
	{"settings-win.data.microsoft.com", "US"},
	{"c.bing.com", "US"},
	{"th.bing.com", "US"},
	{"fd.api.iris.microsoft.com", "US"},
	{"login.live.com", "US"},
	{"smartscreen.microsoft.com", "US"},
	{"functional.events.data.microsoft.com", "US"},
	{"nav.smartscreen.microsoft.com", "US"},
	// Facebook Graph — United States.
	{"graph.facebook.com", "US"},
	// Google / Chrome — United States.
	{"update.googleapis.com", "US"},
	{"safebrowsing.googleapis.com", "US"},
	{"t0.gstatic.com", "US"},
	{"clients4.google.com", "US"},
	{"redirector.gvt1.com", "US"},
	{"storage.googleusercontent.com", "US"},
	{"check.googlezip.net", "US"},
	// DoH resolvers — United States.
	{"cloudflare-dns.com", "US"},
	{"dns.google", "US"},
	// Brave — United States.
	{"variations.brave.com", "US"},
	{"go-updater.brave.com", "US"},
	// DuckDuckGo — United States.
	{"improving.duckduckgo.com", "US"},
	{"staticcdn.duckduckgo.com", "US"},
	// Dolphin — United States.
	{"api.dolphin-browser.com", "US"},
	{"sync.dolphin-browser.com", "US"},
	{"push.dolphin-browser.com", "US"},
	{"cdn.dolphin-browser.com", "US"},
	// Kiwi — United States.
	{"update.kiwibrowser.com", "US"},
	// Samsung Internet — South Korea.
	{"api.internet.apps.samsung.com", "KR"},
	// Whale (Naver) — South Korea.
	{"api-whale.naver.com", "KR"},
	// Mint (Xiaomi) — Singapore.
	{"api.mintbrowser.com", "SG"},
	{"news.mintbrowser.com", "SG"},
	{"data.mistat.intl.xiaomi.com", "SG"},
	{"update.intl.miui.com", "SG"},
	// CocCoc — Vietnam.
	{"api.coccoc.com", "VN"},
	{"spell.itim.vn", "VN"},
	{"newtab.coccoc.com", "VN"},
	{"log.coccoc.com", "VN"},
	{"gg.coccoc.com", "VN"},
	{"qc.coccoc.com", "VN"},
	{"dicts.itim.vn", "VN"},
	// Vivaldi — Norway.
	{"update.vivaldi.com", "NO"},
	{"downloads.vivaldi.com", "NO"},
}

// h2Hosts serve real HTTP/2 framing when the client offers "h2" via
// ALPN — the vendor endpoints whose native telemetry rides h2 in the
// testbed. Clients that offer no ALPN (or only http/1.1) get HTTP/1.1
// from the same handler.
var h2Hosts = map[string]bool{
	"update.googleapis.com":       true,
	"browser.events.data.msn.com": true,
	"variations.brave.com":        true,
}

// h3Hosts advertise HTTP/3 support and bind a UDP/443 endpoint — the
// origins QUIC-capable browsers probe before the firewall's block-http3
// rule forces them back onto interceptable TCP.
var h3Hosts = map[string]bool{
	"update.googleapis.com": true,
	"clients4.google.com":   true,
	"variations.brave.com":  true,
	"config.edge.skype.com": true,
}

// wsHost is the push endpoint that accepts a WebSocket upgrade and acks
// each telemetry frame — Dolphin's frame-borne channel.
const wsHost = "push.dolphin-browser.com"

// Vendors is the running backend fleet.
type Vendors struct {
	backends map[string]*Backend
	servers  []*http.Server
	splits   []net.Listener // raw listeners under the ALPN-splitting accept loops
	udps     []*netsim.UDPEndpoint
	// DoHCloudflare and DoHGoogle expose the resolvers' query logs.
	DoHCloudflare *dnssim.Handler
	DoHGoogle     *dnssim.Handler
	now           func() time.Time
}

// Setup hosts every backend on the virtual internet with certificates
// from the public CA. now supplies log timestamps (pass the virtual
// clock's Now).
func Setup(inet *netsim.Internet, ca *pki.CA, now func() time.Time) (*Vendors, error) {
	if now == nil {
		now = time.Now
	}
	v := &Vendors{backends: make(map[string]*Backend), now: now}
	v.DoHCloudflare = dnssim.NewHandler(inet)
	v.DoHGoogle = dnssim.NewHandler(inet)

	for _, spec := range backendHosts {
		b := &Backend{Host: spec.host, Country: spec.country}
		v.backends[spec.host] = b
		handler := v.handlerFor(b)
		l, ip, err := inet.ListenDomain(spec.host, spec.country, 443)
		if err != nil {
			return nil, fmt.Errorf("vendorsim: host %s: %w", spec.host, err)
		}
		cert, err := ca.Issue(spec.host)
		if err != nil {
			return nil, fmt.Errorf("vendorsim: certificate for %s: %w", spec.host, err)
		}
		tcfg := &tls.Config{Certificates: []tls.Certificate{cert}}
		srv := &http.Server{Handler: handler}
		if h2Hosts[spec.host] {
			// ALPN-splitting accept loop: h2 connections go to the
			// frame-level server, everything else feeds the stdlib
			// HTTP/1.1 server through a channel listener.
			tcfg.NextProtos = []string{h2.ProtoName, "http/1.1"}
			cl := newChanListener(l.Addr())
			go srv.Serve(cl)
			go serveALPNSplit(l, tcfg, cl, handler)
			v.splits = append(v.splits, l)
		} else {
			go srv.Serve(tls.NewListener(l, tcfg))
		}
		v.servers = append(v.servers, srv)

		if h3Hosts[spec.host] {
			inet.AdvertiseH3(spec.host)
			ep, err := inet.ListenUDP(ip, 443)
			if err != nil {
				return nil, fmt.Errorf("vendorsim: udp/443 for %s: %w", spec.host, err)
			}
			v.udps = append(v.udps, ep)
			go drainUDP(ep) // QUIC initials are acknowledged by existing
		}
	}
	return v, nil
}

// serveALPNSplit accepts raw connections, handshakes TLS, and routes by
// negotiated protocol: h2 to the frame server, anything else into cl.
func serveALPNSplit(l net.Listener, tcfg *tls.Config, cl *chanListener, handler http.Handler) {
	defer cl.Close()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			tc := tls.Server(c, tcfg)
			if err := tc.Handshake(); err != nil {
				c.Close()
				return
			}
			if tc.ConnectionState().NegotiatedProtocol == h2.ProtoName {
				h2.ServeConn(tc, handler)
				return
			}
			cl.deliver(tc)
		}(c)
	}
}

// drainUDP consumes datagrams so a bound QUIC endpoint's queue stays
// empty; delivery itself (the endpoint existing) is what the browser's
// h3 probe observes.
func drainUDP(ep *netsim.UDPEndpoint) {
	buf := make([]byte, 2048)
	for {
		if _, _, err := ep.ReadFrom(buf); err != nil {
			return
		}
	}
}

// chanListener adapts a stream of pre-handshaken TLS connections to
// net.Listener for the stdlib HTTP/1.1 server.
type chanListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
	addr net.Addr
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{ch: make(chan net.Conn, 16), done: make(chan struct{}), addr: addr}
}

func (l *chanListener) deliver(c net.Conn) {
	select {
	case l.ch <- c:
	case <-l.done:
		c.Close()
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }

// handlerFor wires per-host behaviour on top of the logging backend.
func (v *Vendors) handlerFor(b *Backend) http.Handler {
	switch b.Host {
	case "cloudflare-dns.com":
		return v.logWrap(b, v.DoHCloudflare)
	case "dns.google":
		return v.logWrap(b, v.DoHGoogle)
	case "ucgjs.ucweb.com":
		// Serves the obfuscated injected snippet.
		return v.logWrap(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/javascript")
			io.WriteString(w, ucInjectedSnippet)
		}))
	case "news.opera-api.com":
		return v.logWrap(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"articles":[{"id":%d,"title":"sim"},{"id":%d,"title":"sim"}]}`,
				b.Count(), b.Count()+1)
		}))
	case wsHost:
		// Push endpoint: accepts a WebSocket upgrade and acks every
		// telemetry frame; plain HTTP requests fall through to the
		// generic handler.
		return v.logWrap(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !ws.IsUpgradeRequest(r) {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"ok":true}`)
				return
			}
			conn, err := ws.Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				op, msg, err := conn.ReadMessage()
				if err != nil {
					return
				}
				b.recordFrame(v.now, r.URL.Path, msg)
				if err := conn.WriteMessage(op, []byte(`{"ok":true}`)); err != nil {
					return
				}
			}
		}))
	case "s-odx.oleads.com":
		return v.logWrap(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"ads":[{"type":"BIG_CARD","cpm":120},{"type":"DISPLAY_HTML_300x250","cpm":85}]}`)
		}))
	default:
		return v.logWrap(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"ok":true}`)
		}))
	}
}

// logWrap records every request before delegating. The body is re-buffered
// so the inner handler can still read it.
func (v *Vendors) logWrap(b *Backend, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lr := b.record(r, v.now)
		if lr.Body != "" {
			r.Body = io.NopCloser(strings.NewReader(lr.Body))
			r.ContentLength = int64(len(lr.Body))
		}
		inner.ServeHTTP(w, r)
	})
}

// Backend returns the handle for a hosted endpoint, or nil.
func (v *Vendors) Backend(host string) *Backend {
	return v.backends[host]
}

// Hosts returns every hosted backend host, sorted.
func (v *Vendors) Hosts() []string {
	out := make([]string, 0, len(v.backends))
	for h := range v.backends {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Close stops all servers and accept loops and unbinds the QUIC
// endpoints.
func (v *Vendors) Close() {
	for _, s := range v.servers {
		s.Close()
	}
	for _, l := range v.splits {
		l.Close()
	}
	for _, ep := range v.udps {
		ep.Close()
	}
}

// ucInjectedSnippet is the stand-in for UC International's obfuscated
// injected JavaScript (paper §3.2): the engine "executes" it by issuing
// the beacon it encodes.
const ucInjectedSnippet = `(function(){var _0x4f=['\x68\x72\x65\x66','\x6c\x6f\x63'];` +
	`var u=encodeURIComponent(location[_0x4f[0]]);` +
	`new Image().src='https://gjapi.ucweb.com/collect?u='+u+'&city={CITY}&isp={ISP}&cc={CC}';})();`

// UCInjectedSnippet exposes the snippet for the engine's injection point.
func UCInjectedSnippet() string { return ucInjectedSnippet }

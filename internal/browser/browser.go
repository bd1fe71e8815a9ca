// Package browser implements the mobile browser app emulator: a web
// engine plus the native services the paper measures — per-visit
// phone-home requests, safe-browsing and suggestion lookups, telemetry
// and ad-SDK beacons carrying PII (Table 2), DoH or stub name
// resolution, persistent identifiers in app storage, an idle scheduler
// reproducing Figure 5's phone-home curves, a setup wizard Appium clicks
// through, and either a CDP server or Frida-hookable exports for
// instrumentation.
//
// The emulator never labels its own traffic: everything it does leaves
// the device as ordinary HTTP(S) through the diverted network stack, and
// the analysis pipeline has to find the behaviours on the wire.
package browser

import (
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/cdp"
	"panoptes/internal/device"
	"panoptes/internal/dnssim"
	"panoptes/internal/faultsim"
	"panoptes/internal/frida"
	"panoptes/internal/netsim"
	"panoptes/internal/profiles"
	"panoptes/internal/vclock"
	"panoptes/internal/webengine"
)

// Testbed constants the PII beacons draw from: the paper's EU vantage
// point (FORTH, Heraklion, Greece).
const (
	TestbedTimezone = "Europe/Athens"
	TestbedLocale   = "el-GR"
	TestbedCountry  = "GR"
	TestbedCity     = "Heraklion"
	TestbedISP      = "FORTHnet"
	TestbedLat      = "35.3387"
	TestbedLon      = "25.1442"
)

var instanceSeq atomic.Int64

// Options wires a Browser into the simulation.
type Options struct {
	Device *device.Device
	Clock  *vclock.Clock
	// PublicRoots is the real web PKI pool; pinned hosts validate against
	// it alone, which is what defeats the MITM proxy for them.
	PublicRoots *x509.CertPool
	// FridaDevice is the process registry for Frida attachment.
	FridaDevice *frida.Device
	// ControlIP hosts the CDP endpoint (out of band, not diverted).
	ControlIP net.IP
	// ControlPort for the DevTools listener.
	ControlPort int
	// DisableTLSResume turns off client-side TLS session caching, so
	// every connection pays a full handshake (ablation; pairs with the
	// proxy's cold-handshake mode).
	DisableTLSResume bool
	// Transports lists the data-plane protocols the campaign enabled
	// (capture.TransportH1/H2/WS/DoH). Nil enables all; the browser skips
	// native h2 connections and WebSocket telemetry for transports the
	// interception plane is not configured to dissect.
	Transports []string
}

// Browser is one emulated browser app instance.
type Browser struct {
	Profile *profiles.Profile
	Pkg     *device.Package

	opts  Options
	dev   *device.Device
	clock *vclock.Clock
	// activity is the browser's private clock: it measures virtual time
	// the app itself experiences (page loads, settle windows, idle
	// waiting) and drives the idle phone-home scheduler. It is advanced
	// only by whoever is driving this browser — under a parallel
	// campaign, the one worker crawling it — so a browser's idle curve
	// depends solely on its own timeline, never on how many other
	// browsers happen to be advancing the shared world clock. Flow
	// timestamps and TLS validation keep using the world clock.
	activity *vclock.Clock

	engine       *webengine.Engine
	nativeClient *http.Client
	dohClient    *dnssim.Client

	cdpServer   *cdp.Server
	cdpListener *netsim.Listener
	cdpHTTP     *http.Server
	cdpURL      string

	mu           sync.Mutex
	running      bool
	wizardStep   int // 0..len(wizardSteps): done when == len
	incognito    bool
	uuid         string
	visitCount   int
	noiseIdx     int
	idleTicker   *vclock.Ticker
	idleAlign    *vclock.Timer // re-alignment timer after a mid-session relaunch
	idleStart    time.Time
	idleIssued   float64
	idleCredit   []float64
	rng          *rand.Rand
	fridaHook    frida.RequestHook
	fetchEnabled bool
	netEnabled   bool
	pausedMu     sync.Mutex
	paused       map[string]chan []cdp.HeaderEntry
	pausedSeq    int
	nativeErrs   int
	resolve      webengine.ResolveFunc
	faults       *faultsim.Injector
	navTimeout   time.Duration

	// resolveMu guards the app-session OS-resolver cache. It lives on the
	// Browser (not in a buildClients closure) so SessionState can snapshot
	// and restore it across retries and relaunches.
	resolveMu    sync.Mutex
	resolveCache map[string]bool

	// clientTLS is the native stack's TLS template (roots, clock, session
	// cache); the h2 and WebSocket dialers clone it per connection.
	clientTLS *tls.Config

	// quicMu guards the per-session QUIC arms-race cache: the first
	// native contact with an h3-advertising origin probes UDP/443 once
	// and remembers the outcome ("fallback" or "bypass") for the rest of
	// the app session. Snapshotted by SessionState so a restore does not
	// re-probe (and re-count) hosts the session already raced.
	quicMu    sync.Mutex
	quicState map[string]string

	// h2Mu serialises the native HTTP/2 connections (one per H2Hosts
	// entry, persistent across visits like a real h2 session).
	h2Mu    sync.Mutex
	h2Conns map[string]*h2NativeConn

	// navMu/navInFlight/navIdle track Navigate calls still running after
	// their CDP or Frida RPC gave up (a wall-clock timeout abandons the
	// call, not the handler). Quiesce fences session rollback against
	// these zombies.
	navMu       sync.Mutex
	navInFlight int
	navIdle     chan struct{}
}

// navEnter/navExit bracket every Navigate call (including ones whose RPC
// has already timed out).
func (b *Browser) navEnter() {
	b.navMu.Lock()
	b.navInFlight++
	b.navMu.Unlock()
}

func (b *Browser) navExit() {
	b.navMu.Lock()
	b.navInFlight--
	if b.navInFlight == 0 && b.navIdle != nil {
		close(b.navIdle)
		b.navIdle = nil
	}
	b.navMu.Unlock()
}

// Quiesce blocks until no Navigate call is in flight, or until timeout.
// The campaign runner calls it after a failed attempt, before rolling the
// session back: a navigation that outlived its timed-out RPC must not
// mutate state concurrently with RestoreSession. It returns false if a
// navigation is still running (e.g. wedged on a hung origin) — such a
// zombie only resumes after the campaign's own goroutines have joined, so
// abandoning it is safe, just untidy.
func (b *Browser) Quiesce(timeout time.Duration) bool {
	b.navMu.Lock()
	if b.navInFlight == 0 {
		b.navMu.Unlock()
		return true
	}
	if b.navIdle == nil {
		b.navIdle = make(chan struct{})
	}
	idle := b.navIdle
	b.navMu.Unlock()
	select {
	case <-idle:
		return true
	case <-time.After(timeout):
		return false
	}
}

// SetFaults installs (or clears, with nil) the fault injector consulted on
// navigation (browser_crash) and by the CDP handler (cdp_stall).
func (b *Browser) SetFaults(inj *faultsim.Injector) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults = inj
}

func (b *Browser) faultsInj() *faultsim.Injector {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.faults
}

// SetNavigateTimeout bounds every engine request (document and
// sub-resources) so a hung origin cannot stall a navigation beyond the
// campaign's NavigateTimeout. It applies to the current engine and to
// engines built by later relaunches. Non-positive values are ignored.
func (b *Browser) SetNavigateTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	b.mu.Lock()
	b.navTimeout = d
	eng := b.engine
	b.mu.Unlock()
	if eng != nil {
		eng.SetTimeout(d)
	}
}

// New installs the app on the device and returns the (not yet launched)
// browser.
func New(p *profiles.Profile, opts Options) *Browser {
	pkg := opts.Device.Install(p.Package)
	b := &Browser{
		Profile:  p,
		Pkg:      pkg,
		opts:     opts,
		dev:      opts.Device,
		clock:    opts.Clock,
		activity: vclock.NewAt(opts.Clock.Now()),
		paused:   make(map[string]chan []cdp.HeaderEntry),
		rng:      rand.New(rand.NewSource(int64(hashString(p.Package)))),
	}
	return b
}

func hashString(s string) uint32 {
	h := sha256.Sum256([]byte(s))
	return uint32(h[0])<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
}

// UID returns the app's kernel UID.
func (b *Browser) UID() int { return b.Pkg.UID }

// Running reports whether the app is up.
func (b *Browser) Running() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running
}

// DevToolsURL returns the CDP endpoint ("" for Frida-only browsers or
// when stopped).
func (b *Browser) DevToolsURL() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cdpURL
}

// Launch starts the app: loads (or mints) its persistent identifier,
// builds the engine and native clients, exposes the instrumentation
// surface, and arms the idle phone-home scheduler. Launching twice is an
// error.
func (b *Browser) Launch() error {
	b.mu.Lock()
	if b.running {
		b.mu.Unlock()
		return fmt.Errorf("browser: %s already running", b.Profile.Name)
	}
	b.running = true
	b.visitCount = 0
	b.idleIssued = 0
	b.mu.Unlock()

	// Persistent identifier: survives relaunches, dies with app data.
	uuid, ok := b.dev.StorageGet(b.Pkg.Name, "install_uuid")
	if !ok {
		uuid = b.mintUUID()
		if err := b.dev.StoragePut(b.Pkg.Name, "install_uuid", uuid); err != nil {
			return fmt.Errorf("browser: store uuid: %w", err)
		}
	}
	b.mu.Lock()
	b.uuid = uuid
	b.idleStart = b.activity.Now()
	b.mu.Unlock()

	b.buildClients()

	if b.Profile.Instrumentation == profiles.InstrumentCDP {
		if err := b.startCDP(); err != nil {
			return err
		}
	}
	if b.opts.FridaDevice != nil {
		b.opts.FridaDevice.Register(b.Pkg.Name, b.fridaExports())
	}

	// Idle scheduler: wakes every 5 virtual seconds of the browser's own
	// activity time and tops issued requests up to the profile's
	// cumulative curve.
	b.idleTicker = b.activity.Tick(5*time.Second, b.idleTick)
	return nil
}

// AdvanceActivity moves the browser's private activity clock forward,
// firing any idle-scheduler ticks that fall due. The campaign scheduler
// calls it once per visit (modelled load time plus settle) and the idle
// experiment steps it in lockstep with the world clock; tests drive it
// directly to elicit idle traffic.
func (b *Browser) AdvanceActivity(d time.Duration) {
	b.activity.Advance(d)
}

func (b *Browser) mintUUID() string {
	seq := instanceSeq.Add(1)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d", b.Pkg.Name, seq, b.clock.Now().UnixNano())))
	return hex.EncodeToString(sum[:])
}

// buildClients constructs the engine and the native-service HTTP client.
func (b *Browser) buildClients() {
	roots := b.dev.TrustedRoots()
	baseTLS := &tls.Config{RootCAs: roots, Time: b.clock.Now}

	// Pinned hosts validate against the public web PKI only; the MITM
	// chain fails for them (paper footnote 3).
	pinned := make(map[string]bool, len(b.Profile.PinnedHosts))
	for _, h := range b.Profile.PinnedHosts {
		pinned[h] = true
	}

	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		return b.dev.DialContext(ctx, b.Pkg.UID, addr)
	}

	// Session caches are created per launch, so a relaunched app starts
	// with cold TLS state the way a restarted process would; while it
	// runs, repeat connections resume instead of re-handshaking.
	nativeTLS := baseTLS.Clone()
	if !b.opts.DisableTLSResume {
		nativeTLS.ClientSessionCache = tls.NewLRUClientSessionCache(64)
	}
	if len(pinned) > 0 {
		nativeTLS.VerifyConnection = func(cs tls.ConnectionState) error {
			if !pinned[cs.ServerName] {
				return nil
			}
			opts := x509.VerifyOptions{
				Roots:         b.opts.PublicRoots,
				DNSName:       cs.ServerName,
				CurrentTime:   b.clock.Now(),
				Intermediates: x509.NewCertPool(),
			}
			for _, c := range cs.PeerCertificates[1:] {
				opts.Intermediates.AddCert(c)
			}
			if _, err := cs.PeerCertificates[0].Verify(opts); err != nil {
				return fmt.Errorf("browser: pinned host %s: %w", cs.ServerName, err)
			}
			return nil
		}
	}
	b.nativeClient = &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dial(ctx, addr)
			},
			TLSClientConfig:     nativeTLS,
			MaxIdleConnsPerHost: 4,
			// Native services talk to a handful of vendor hosts over and
			// over; a roomy idle pool keeps those sessions warm instead of
			// re-handshaking every telemetry beacon.
			MaxIdleConns:    128,
			IdleConnTimeout: 90 * time.Second,
		},
		Timeout: 30 * time.Second,
	}

	// Resolver path: DoH browsers ship lookups to Cloudflare/Google over
	// HTTPS (native flows); the rest use the device stub. Results are
	// cached per app session, as the OS resolver cache would.
	var resolve webengine.ResolveFunc
	switch b.Profile.DNS {
	case profiles.DNSDoHCloudflare, profiles.DNSDoHGoogle:
		endpoint := "https://cloudflare-dns.com/dns-query"
		if b.Profile.DNS == profiles.DNSDoHGoogle {
			endpoint = "https://dns.google/dns-query"
		}
		b.dohClient = &dnssim.Client{Endpoint: endpoint, HTTP: b.nativeClient}
		resolve = func(host string) error {
			_, err := b.dohClient.Lookup(host)
			return err
		}
	default:
		resolve = func(host string) error {
			_, err := b.dev.Resolver().Lookup(host)
			return err
		}
	}
	b.resolveMu.Lock()
	b.resolveCache = make(map[string]bool)
	b.resolveMu.Unlock()
	b.clientTLS = nativeTLS
	b.quicMu.Lock()
	b.quicState = make(map[string]string)
	b.quicMu.Unlock()
	b.h2Mu.Lock()
	b.h2Conns = make(map[string]*h2NativeConn)
	b.h2Mu.Unlock()
	b.resolve = func(host string) error {
		b.resolveMu.Lock()
		if b.resolveCache[host] {
			b.resolveMu.Unlock()
			return nil
		}
		b.resolveMu.Unlock()
		err := resolve(host)
		if err == nil {
			b.resolveMu.Lock()
			b.resolveCache[host] = true
			b.resolveMu.Unlock()
		}
		return err
	}

	engineTLS := baseTLS.Clone()
	if !b.opts.DisableTLSResume {
		engineTLS.ClientSessionCache = tls.NewLRUClientSessionCache(64)
	}
	b.engine = webengine.New(webengine.Config{
		UserAgent: b.Profile.UserAgent(),
		Dial:      dial,
		TLS:       engineTLS,
		Resolve:   resolve,
	})
	b.engine.SetInterceptor(b.interceptEngineRequest)
	b.engine.SetRequestObserver(b.observeEngineRequest)
	b.mu.Lock()
	navTimeout := b.navTimeout
	b.mu.Unlock()
	if navTimeout > 0 {
		b.engine.SetTimeout(navTimeout)
	}

	if b.Profile.InjectsScript {
		b.engine.AddInjection(webengine.Injection{
			Name:      "uc-gjs",
			ScriptURL: "https://ucgjs.ucweb.com/gj.js",
			Execute: func(e *webengine.Engine, pageURL string) error {
				beacon := fmt.Sprintf(
					"https://gjapi.ucweb.com/collect?u=%s&city=%s&isp=%s&cc=%s",
					url.QueryEscape(pageURL), TestbedCity, TestbedISP, TestbedCountry)
				_, _, _, err := e.Fetch(beacon)
				return err
			},
		})
	}
}

// Stop halts the app: idle scheduler off, instrumentation surfaces torn
// down. App data (the persistent identifier) survives.
func (b *Browser) Stop() {
	b.mu.Lock()
	if !b.running {
		b.mu.Unlock()
		return
	}
	b.running = false
	ticker := b.idleTicker
	b.idleTicker = nil
	align := b.idleAlign
	b.idleAlign = nil
	b.mu.Unlock()

	if ticker != nil {
		ticker.Stop()
	}
	if align != nil {
		align.Stop()
	}
	b.stopCDP()
	if b.opts.FridaDevice != nil {
		b.opts.FridaDevice.Unregister(b.Pkg.Name)
	}
	// Release pooled connections: a 15-browser campaign would otherwise
	// accumulate thousands of idle in-memory TLS sessions.
	if b.engine != nil {
		b.engine.Close()
	}
	if b.nativeClient != nil {
		b.nativeClient.CloseIdleConnections()
	}
	b.closeH2Conns()
}

// Reset is the Appium factory reset: stop the app and wipe its private
// data, destroying the persistent identifier.
func (b *Browser) Reset() error {
	b.Stop()
	if err := b.dev.ClearAppData(b.Pkg.Name); err != nil {
		return err
	}
	b.mu.Lock()
	b.uuid = ""
	b.wizardStep = 0
	b.incognito = false
	b.mu.Unlock()
	return nil
}

// UUID returns the current persistent identifier ("" before launch).
func (b *Browser) UUID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.uuid
}

// SetIncognito switches private browsing. Browsers without the mode
// (Yandex, QQ — paper footnote 5) return an error.
func (b *Browser) SetIncognito(on bool) error {
	if on && !b.Profile.HasIncognito {
		return fmt.Errorf("browser: %s has no incognito mode", b.Profile.Name)
	}
	b.mu.Lock()
	b.incognito = on
	b.mu.Unlock()
	if on && b.engine != nil {
		b.engine.ResetSession()
	}
	return nil
}

// Incognito reports the current mode.
func (b *Browser) Incognito() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.incognito
}

// NativeErrors counts native requests that failed (pinned hosts dying on
// the proxy land here).
func (b *Browser) NativeErrors() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nativeErrs
}

// --- Idle phone-home scheduler (Figure 5) ---

// idleTick tops the cumulative idle request count up to the profile's
// curve C(t) = Burst·(1−exp(−t/τ)) + Rate·t/60.
func (b *Browser) idleTick() {
	b.mu.Lock()
	if !b.running {
		b.mu.Unlock()
		return
	}
	t := b.activity.Now().Sub(b.idleStart).Seconds()
	p := b.Profile
	expected := p.IdleBurst*(1-math.Exp(-t/p.IdleTauSec)) + p.IdleRatePerMin*t/60
	var dests []profiles.IdleDest
	for b.idleIssued < expected {
		b.idleIssued++
		dests = append(dests, b.pickIdleDest())
	}
	b.mu.Unlock()

	for _, d := range dests {
		b.nativeRequest("GET", d.Host, d.Path, "", "")
	}
}

// pickIdleDest selects the next destination by smooth weighted
// round-robin, so idle destination shares converge exactly to the
// profile's weights (Figure 5's percentages). Callers hold b.mu.
func (b *Browser) pickIdleDest() profiles.IdleDest {
	dests := b.Profile.IdleDests
	if len(dests) == 0 {
		return profiles.IdleDest{Host: "example.invalid", Path: "/"}
	}
	if len(b.idleCredit) != len(dests) {
		b.idleCredit = make([]float64, len(dests))
	}
	total := 0.0
	best := 0
	for i, d := range dests {
		b.idleCredit[i] += d.Weight
		total += d.Weight
		if b.idleCredit[i] > b.idleCredit[best] {
			best = i
		}
	}
	b.idleCredit[best] -= total
	return dests[best]
}

// --- Native request plumbing ---

// nativeRequest issues one untainted request from the app's native code.
func (b *Browser) nativeRequest(method, host, path, query, body string) {
	if b.resolve != nil {
		_ = b.resolve(host)
	}
	u := "https://" + host + path
	if query != "" {
		u += "?" + query
	}
	// QUIC arms race: a Chromium-family stack probes UDP/443 first; a
	// delivered probe means the request leaves over HTTP/3 and never
	// reaches the TCP interception plane.
	if b.quicBypass(method, host, u, body) {
		return
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return
	}
	req.Header.Set("User-Agent", b.Profile.UserAgent())
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if b.useH2(host) {
		if done := b.h2Request(req); done {
			return
		}
		// ALPN fell back to http/1.1 (h2 disabled at the proxy): reissue
		// on the ordinary client below.
		if body != "" {
			req.Body = io.NopCloser(strings.NewReader(body))
		}
	}
	resp, err := b.nativeClient.Do(req)
	if err != nil {
		b.mu.Lock()
		b.nativeErrs++
		b.mu.Unlock()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// expand fills a native template's placeholders for a visit.
func (b *Browser) expand(t, visitURL string) string {
	host := ""
	if u, err := url.Parse(visitURL); err == nil {
		host = u.Hostname()
	}
	r := strings.NewReplacer(
		"{URL}", visitURL,
		"{URL_B64}", base64.StdEncoding.EncodeToString([]byte(visitURL)),
		"{URL_ESC}", url.QueryEscape(visitURL),
		"{HOST}", host,
		"{UUID}", b.UUID(),
	)
	return r.Replace(t)
}

// onVisitNative fires the profile's per-visit native traffic.
func (b *Browser) onVisitNative(visitURL string) {
	p := b.Profile
	for _, t := range p.OnVisit {
		method := t.Method
		if method == "" {
			method = http.MethodGet
		}
		b.nativeRequest(method, t.Host, t.Path, b.expand(t.Query, visitURL), b.expand(t.Body, visitURL))
	}
	// PII beacon (Table 2): device attributes as query parameters.
	if p.PII.Any() && p.PIICarrier != "" {
		b.nativeRequest(http.MethodGet, p.PIICarrier, "/device/profile", b.piiQuery(), "")
	}
	// Generic telemetry noise, round-robin over the noise hosts.
	for i := 0; i < p.VisitNoise; i++ {
		if len(p.NoiseHosts) == 0 {
			break
		}
		b.mu.Lock()
		host := p.NoiseHosts[b.noiseIdx%len(p.NoiseHosts)]
		b.noiseIdx++
		b.mu.Unlock()
		body := ""
		method := http.MethodGet
		if p.NoiseBytes > 0 {
			method = http.MethodPost
			body = fmt.Sprintf(`{"event":"telemetry","seq":%d,"pad":"%s"}`,
				b.visitCount, strings.Repeat("t", p.NoiseBytes))
		}
		b.nativeRequest(method, host, "/beacon", "", body)
	}
	// WebSocket push telemetry: the visited URL rides inside a frame, not
	// an HTTP request line or body.
	if p.WSTelemetryHost != "" && b.transportOn(capture.TransportWS) {
		b.wsTelemetry(p.WSTelemetryHost, visitURL)
	}
	// DoH PII qname: the device country crosses the wire only as a DNS
	// label inside the DoH POST body.
	if p.DoHPIIQname != "" && b.dohClient != nil {
		qname := strings.ReplaceAll(p.DoHPIIQname, "{CC}", strings.ToLower(TestbedCountry))
		_, _ = b.dohClient.Lookup(qname)
	}
}

// piiQuery renders the Table 2 attributes the profile leaks.
func (b *Browser) piiQuery() string {
	p := b.Profile.PII
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+url.QueryEscape(v)) }
	if p.DeviceType {
		add("deviceType", "TABLET")
	}
	if p.DeviceManuf {
		add("manufacturer", device.Manufacturer)
	}
	if p.Timezone {
		add("tz", TestbedTimezone)
	}
	if p.Resolution {
		add("resolution", fmt.Sprintf("%dx%d", device.ScreenWidth, device.ScreenHeight))
	}
	if p.LocalIP {
		add("localIp", b.dev.IP.String())
	}
	if p.DPI {
		add("dpi", fmt.Sprint(device.ScreenDPI))
	}
	if p.Rooted {
		add("rooted", fmt.Sprint(b.dev.Rooted()))
	}
	if p.Locale {
		add("locale", TestbedLocale)
	}
	if p.Country {
		add("country", TestbedCountry)
	}
	if p.LatLong {
		add("latitude", TestbedLat)
		add("longitude", TestbedLon)
	}
	if p.ConnType {
		add("connectionType", "UNMETERED")
	}
	if p.NetType {
		add("networkType", "WIFI")
	}
	return strings.Join(parts, "&")
}

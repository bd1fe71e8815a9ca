package mitm

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/device"
	"panoptes/internal/netsim"
	"panoptes/internal/pki"
	"panoptes/internal/taint"
	"panoptes/internal/vclock"
)

// rig is a full interception testbed: virtual internet, device with
// diversion rules, an HTTPS upstream signed by the public CA, and the
// proxy with a taint splitter.
type rig struct {
	inet     *netsim.Internet
	dev      *device.Device
	proxy    *Proxy
	db       *capture.DB
	visits   *capture.VisitContext
	splitter *taint.SplitterAddon
	token    string
	publicCA *pki.CA
	mitmCA   *pki.CA
	browser  *device.Package
	seen     *upstreamLog
}

type upstreamLog struct {
	mu      sync.Mutex
	headers []http.Header
	paths   []string
}

func (u *upstreamLog) record(r *http.Request) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.headers = append(u.headers, r.Header.Clone())
	u.paths = append(u.paths, r.URL.RequestURI())
}

func newRig(t *testing.T, cfgMod func(*Config)) *rig {
	t.Helper()
	clock := vclock.New()
	inet := netsim.New()
	dev, err := device.New(clock, inet)
	if err != nil {
		t.Fatal(err)
	}

	publicCA, err := pki.NewCA("Public Web Root", clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	mitmCA, err := pki.NewCA("panoptes mitmproxy", clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	dev.InstallCA(mitmCA.Cert)
	dev.InstallCA(publicCA.Cert)

	// Upstream HTTPS site.
	seen := &upstreamLog{}
	siteL, _, err := inet.ListenDomain("site.example", "US", 443)
	if err != nil {
		t.Fatal(err)
	}
	siteCert, err := publicCA.Issue("site.example")
	if err != nil {
		t.Fatal(err)
	}
	siteSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.record(r)
		fmt.Fprintf(w, "hello from %s%s", r.Host, r.URL.Path)
	})}
	go siteSrv.Serve(tls.NewListener(siteL, &tls.Config{Certificates: []tls.Certificate{siteCert}}))
	t.Cleanup(func() { siteSrv.Close() })

	// Plain-HTTP upstream too.
	plainL, _, err := inet.ListenDomain("plain.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	plainSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.record(r)
		io.WriteString(w, "plain ok")
	})}
	go plainSrv.Serve(plainL)
	t.Cleanup(func() { plainSrv.Close() })

	// Proxy container, running under its own UID on the device.
	proxyPkg := dev.Install("org.debian.mitmproxy")
	cfg := Config{
		CA:            mitmCA,
		UpstreamRoots: &tls.Config{RootCAs: publicCA.Pool(), Time: clock.Now},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return dev.DialContext(ctx, proxyPkg.UID, addr)
		},
		Now: clock.Now,
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	proxy, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := capture.NewDB()
	visits := capture.NewVisitContext()
	token := taint.NewToken()
	splitter := taint.NewSplitter(token, db, visits)
	proxy.Use(splitter)

	proxyL, err := inet.ListenIP(dev.IP, 8080)
	if err != nil {
		t.Fatal(err)
	}
	go proxy.Serve(proxyL)
	t.Cleanup(func() { proxyL.Close(); proxy.Close() })

	browser := dev.Install("com.test.browser")
	if err := dev.DivertBrowser(browser.UID, "192.168.1.100:8080"); err != nil {
		t.Fatal(err)
	}
	visits.SetBrowser(browser.UID, "TestBrowser")

	return &rig{
		inet: inet, dev: dev, proxy: proxy, db: db, visits: visits,
		splitter: splitter, token: token, publicCA: publicCA, mitmCA: mitmCA,
		browser: browser, seen: seen,
	}
}

// appClient builds an HTTP client that dials through the device as the
// browser app and trusts the device trust store (mitm CA included).
func (r *rig) appClient() *http.Client {
	pool := r.dev.TrustedRoots()
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return r.dev.DialContext(ctx, r.browser.UID, addr)
		},
		TLSClientConfig:   &tls.Config{RootCAs: pool, Time: r.dev.Clock.Now},
		DisableKeepAlives: false,
	}}
}

func TestTransparentHTTPSInterception(t *testing.T) {
	r := newRig(t, nil)
	client := r.appClient()

	// Tainted (engine) request.
	req, _ := http.NewRequest("GET", "https://site.example/page?q=1", nil)
	taint.Inject(req.Header, r.token)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "hello from site.example/page") {
		t.Fatalf("resp = %d %q", resp.StatusCode, body)
	}

	// Untainted (native) request.
	resp2, err := client.Get("https://site.example/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()

	if got := r.db.Engine.Len(); got != 1 {
		t.Fatalf("engine flows = %d", got)
	}
	if got := r.db.Native.Len(); got != 1 {
		t.Fatalf("native flows = %d", got)
	}
	ef := r.db.Engine.All()[0]
	if ef.Host != "site.example" || ef.Path != "/page" || ef.RawQuery != "q=1" || ef.Scheme != "https" {
		t.Fatalf("engine flow = %+v", ef)
	}
	if ef.Browser != "TestBrowser" || ef.BrowserUID != r.browser.UID {
		t.Fatalf("flow attribution = %+v", ef)
	}
	if ef.Status != 200 || ef.ReqBytes <= 0 || ef.RespBytes <= 0 {
		t.Fatalf("flow accounting = %+v", ef)
	}

	// The upstream never saw the taint header.
	r.seen.mu.Lock()
	defer r.seen.mu.Unlock()
	for _, h := range r.seen.headers {
		if h.Get(taint.HeaderName) != "" {
			t.Fatal("taint header leaked upstream")
		}
	}
}

func TestPlainHTTPInterception(t *testing.T) {
	r := newRig(t, nil)
	client := r.appClient()
	resp, err := client.Get("http://plain.example/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "plain ok" {
		t.Fatalf("body = %q", body)
	}
	if r.db.Native.Len() != 1 {
		t.Fatalf("native = %d", r.db.Native.Len())
	}
	if f := r.db.Native.All()[0]; f.Scheme != "http" || f.Host != "plain.example" {
		t.Fatalf("flow = %+v", f)
	}
}

func TestVisitAnnotation(t *testing.T) {
	r := newRig(t, nil)
	r.visits.BeginVisit(r.browser.UID, "https://visited.example/", true)
	client := r.appClient()
	resp, err := client.Get("https://site.example/beacon")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f := r.db.Native.All()[0]
	if f.VisitURL != "https://visited.example/" || !f.Incognito {
		t.Fatalf("flow visit = %+v", f)
	}
}

func TestPOSTBodyCaptured(t *testing.T) {
	r := newRig(t, nil)
	client := r.appClient()
	payload := `{"channelId":"adxsdk","latitude":12.34}`
	resp, err := client.Post("https://site.example/api/v1/sdk_fetch", "application/json",
		strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f := r.db.Native.All()[0]
	if string(f.Body) != payload {
		t.Fatalf("captured body = %q", f.Body)
	}
	if f.Method != "POST" {
		t.Fatalf("method = %s", f.Method)
	}
}

func TestKeepAliveReusesClientConn(t *testing.T) {
	r := newRig(t, nil)
	client := r.appClient()
	for i := 0; i < 5; i++ {
		resp, err := client.Get(fmt.Sprintf("https://site.example/p%d", i))
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := r.db.Native.Len(); got != 5 {
		t.Fatalf("flows = %d", got)
	}
	// One minted certificate serves all five requests.
	hits, misses := r.proxy.CertCacheStats()
	if misses != 1 {
		t.Fatalf("cert misses = %d (hits %d)", misses, hits)
	}
}

func TestCertCacheDisabled(t *testing.T) {
	r := newRig(t, func(c *Config) { c.DisableCertCache = true })
	client := r.appClient()
	client.Transport.(*http.Transport).DisableKeepAlives = true
	for i := 0; i < 3; i++ {
		resp, err := client.Get("https://site.example/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	_, misses := r.proxy.CertCacheStats()
	if misses != 3 {
		t.Fatalf("misses = %d, want 3 (no cache)", misses)
	}
}

func TestPinnedAppRejectsMintedCert(t *testing.T) {
	r := newRig(t, nil)
	// The app pins the real site key, which the proxy does not hold.
	realLeaf, _ := r.publicCA.Issue("site.example")
	pins := pki.NewPinSet()
	pins.Add("site.example", realLeaf.Leaf)

	tcfg := &tls.Config{
		RootCAs: r.dev.TrustedRoots(),
		Time:    r.dev.Clock.Now,
		VerifyPeerCertificate: func(raw [][]byte, chains [][]*x509.Certificate) error {
			leaf, err := x509.ParseCertificate(raw[0])
			if err != nil {
				return err
			}
			return pins.Verify("site.example", leaf)
		},
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return r.dev.DialContext(ctx, r.browser.UID, addr)
		},
		TLSClientConfig: tcfg,
	}}
	_, err := client.Get("https://site.example/pinned")
	if err == nil {
		t.Fatal("pinned client accepted the MITM certificate")
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.proxy.HandshakeFailures() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if r.proxy.HandshakeFailures() == 0 {
		t.Fatal("handshake failure not counted")
	}
	if r.db.Engine.Len()+r.db.Native.Len() != 0 {
		t.Fatal("pinned flow recorded despite failed handshake")
	}
}

func TestUpstreamFailureGives502(t *testing.T) {
	r := newRig(t, nil)
	// A domain that resolves but has no listener.
	r.inet.RegisterDomain("dead.example", "US")
	client := r.appClient()
	resp, err := client.Get("https://dead.example/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d body=%q", resp.StatusCode, body)
	}
	f := r.db.Native.All()[0]
	if f.Err == "" || f.Status != http.StatusBadGateway {
		t.Fatalf("flow = %+v", f)
	}
}

func TestForgedTaintCountsAsNative(t *testing.T) {
	r := newRig(t, nil)
	client := r.appClient()
	req, _ := http.NewRequest("GET", "https://site.example/forged", nil)
	req.Header.Set(taint.HeaderName, "not-the-campaign-token")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if r.db.Native.Len() != 1 || r.db.Engine.Len() != 0 {
		t.Fatalf("engine=%d native=%d", r.db.Engine.Len(), r.db.Native.Len())
	}
	if r.splitter.Mismatched() != 1 {
		t.Fatalf("mismatched = %d", r.splitter.Mismatched())
	}
}

func TestNewRequiresCAAndDial(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestConcurrentInterception(t *testing.T) {
	r := newRig(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := r.appClient()
			req, _ := http.NewRequest("GET", fmt.Sprintf("https://site.example/c%d", i), nil)
			if i%2 == 0 {
				taint.Inject(req.Header, r.token)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	if r.db.Engine.Len() != 8 || r.db.Native.Len() != 8 {
		t.Fatalf("engine=%d native=%d", r.db.Engine.Len(), r.db.Native.Len())
	}
}

// vetoAddon blocks any request whose path contains "tracker".
type vetoAddon struct{ blocked int }

func (v *vetoAddon) Request(f *capture.Flow, req *http.Request)    {}
func (v *vetoAddon) Response(f *capture.Flow, resp *http.Response) {}
func (v *vetoAddon) Veto(f *capture.Flow, req *http.Request) error {
	if strings.Contains(f.Path, "tracker") {
		v.blocked++
		return fmt.Errorf("test policy")
	}
	return nil
}

func TestVetoerBlocksAtProxy(t *testing.T) {
	r := newRig(t, nil)
	veto := &vetoAddon{}
	r.proxy.Use(veto)
	client := r.appClient()

	// Blocked path → 403 from the proxy, upstream never contacted.
	before := len(r.seen.headers)
	resp, err := client.Get("https://site.example/tracker/beacon")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(body), "blocked") {
		t.Fatalf("resp = %d %q", resp.StatusCode, body)
	}
	r.seen.mu.Lock()
	after := len(r.seen.headers)
	r.seen.mu.Unlock()
	if after != before {
		t.Fatal("vetoed request reached upstream")
	}
	// The flow is still recorded (observed, not delivered) with the veto.
	f := r.db.Native.All()[0]
	if f.Status != http.StatusForbidden || !strings.Contains(f.Err, "vetoed") {
		t.Fatalf("flow = %+v", f)
	}

	// Unblocked path continues to work on the same client.
	resp2, err := client.Get("https://site.example/fine")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("follow-up status = %d", resp2.StatusCode)
	}
	if veto.blocked != 1 {
		t.Fatalf("veto count = %d", veto.blocked)
	}
}

func TestKeepAliveSurvivesVeto(t *testing.T) {
	r := newRig(t, nil)
	r.proxy.Use(&vetoAddon{})
	client := r.appClient()
	// Alternate blocked and allowed requests over a reused connection.
	for i := 0; i < 6; i++ {
		path := "/fine"
		want := 200
		if i%2 == 0 {
			path = "/tracker/x"
			want = 403
		}
		resp, err := client.Get("https://site.example" + path)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("req %d status = %d, want %d", i, resp.StatusCode, want)
		}
	}
}

func TestMalformedHTTPDropsConnection(t *testing.T) {
	r := newRig(t, nil)
	conn, err := r.dev.DialContext(context.Background(), r.browser.UID, "site.example:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tconn := tls.Client(conn, &tls.Config{RootCAs: r.dev.TrustedRoots(), Time: r.dev.Clock.Now,
		ServerName: "site.example"})
	if err := tconn.Handshake(); err != nil {
		t.Fatal(err)
	}
	// Garbage instead of an HTTP request line.
	tconn.Write([]byte("NOT AN HTTP REQUEST\r\n\r\n"))
	buf := make([]byte, 64)
	tconn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := tconn.Read(buf); err == nil && n > 0 {
		// Whatever comes back must not be a 200.
		if strings.Contains(string(buf[:n]), "200") {
			t.Fatalf("malformed request got a response: %q", buf[:n])
		}
	}
	if r.db.Engine.Len()+r.db.Native.Len() != 0 {
		t.Fatal("malformed request produced a flow")
	}
}

func TestLargePOSTBodyCapped(t *testing.T) {
	r := newRig(t, nil)
	client := r.appClient()
	big := strings.Repeat("A", 64*1024)
	resp, err := client.Post("https://site.example/upload", "application/octet-stream",
		strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	f := r.db.Native.All()[0]
	if len(f.Body) != capture.MaxBodyCapture {
		t.Fatalf("captured body = %d, want cap %d", len(f.Body), capture.MaxBodyCapture)
	}
	// Wire size still counts the full body.
	if f.ReqBytes < 64*1024 {
		t.Fatalf("req bytes = %d", f.ReqBytes)
	}
	// Upstream received the whole thing.
	r.seen.mu.Lock()
	defer r.seen.mu.Unlock()
	if len(r.seen.paths) == 0 || r.seen.paths[len(r.seen.paths)-1] != "/upload" {
		t.Fatal("upload did not reach upstream")
	}
}

func TestSNIFallbackToOriginalDst(t *testing.T) {
	// A client that sends no SNI: the proxy mints for the original
	// destination host instead.
	r := newRig(t, nil)
	conn, err := r.dev.DialContext(context.Background(), r.browser.UID, "site.example:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tconn := tls.Client(conn, &tls.Config{
		RootCAs: r.dev.TrustedRoots(), Time: r.dev.Clock.Now,
		// No ServerName: skip verification of the name but check the cert.
		InsecureSkipVerify: true,
	})
	if err := tconn.Handshake(); err != nil {
		t.Fatal(err)
	}
	leaf := tconn.ConnectionState().PeerCertificates[0]
	found := false
	for _, n := range leaf.DNSNames {
		if n == "site.example" {
			found = true
		}
	}
	if !found {
		t.Fatalf("minted cert names = %v", leaf.DNSNames)
	}
}

// TestExplicitProxyCONNECT exercises regular-proxy mode: a client with no
// diversion metadata opens an HTTP CONNECT tunnel (the way curl speaks
// to mitmproxy) and the interception proceeds identically.
func TestExplicitProxyCONNECT(t *testing.T) {
	r := newRig(t, nil)
	proxyURL, _ := url.Parse("http://192.168.1.100:8080")
	client := &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyURL(proxyURL),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			// Plain dial — no device metadata, no diversion.
			return r.inet.Dial(ctx, addr)
		},
		TLSClientConfig: &tls.Config{RootCAs: r.dev.TrustedRoots(), Time: r.dev.Clock.Now},
	}}
	resp, err := client.Get("https://site.example/via-connect")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/via-connect") {
		t.Fatalf("resp = %d %q", resp.StatusCode, body)
	}
	f := r.db.Native.All()[0]
	if f.Host != "site.example" || f.Path != "/via-connect" || f.Scheme != "https" {
		t.Fatalf("flow = %+v", f)
	}
	// No UID is known for explicit-mode clients.
	if f.BrowserUID != -1 {
		t.Fatalf("uid = %d, want -1", f.BrowserUID)
	}
}

func TestExplicitProxyRejectsNonConnect(t *testing.T) {
	r := newRig(t, nil)
	conn, err := r.inet.Dial(context.Background(), "192.168.1.100:8080")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "405") {
		t.Fatalf("response = %q", buf[:n])
	}
}

// commitProbe runs after the taint splitter and records, for each flow,
// how many flows the DB had filed when its Request and its Response
// hooks ran, and the Status the Response hook saw.
type commitProbe struct {
	db       *capture.DB
	mu       sync.Mutex
	atReq    []int64
	atResp   []int64
	statuses []int
}

func (c *commitProbe) filed() int64 { return c.db.Engine.Seen() + c.db.Native.Seen() }

func (c *commitProbe) Request(f *capture.Flow, req *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.atReq = append(c.atReq, c.filed())
}

func (c *commitProbe) Response(f *capture.Flow, resp *http.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.atResp = append(c.atResp, c.filed())
	c.statuses = append(c.statuses, f.Status)
}

// TestSplitterFilesOnResponse pins the commit point: the splitter's
// Request hook files nothing, its Response hook files the finished flow
// once, and the flow's Status is final by then — for a proxied
// response, an upstream failure and a veto alike.
func TestSplitterFilesOnResponse(t *testing.T) {
	r := newRig(t, nil)
	r.inet.RegisterDomain("dead.example", "US")
	probe := &commitProbe{db: r.db}
	r.proxy.Use(probe)
	r.proxy.Use(&vetoAddon{})
	client := r.appClient()

	want := []int{http.StatusOK, http.StatusBadGateway, http.StatusForbidden}
	for _, u := range []string{"https://site.example/ok", "https://dead.example/", "https://site.example/tracker"} {
		resp, err := client.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	for i, status := range want {
		if probe.atReq[i] != int64(i) || probe.atResp[i] != int64(i+1) {
			t.Errorf("flow %d: %d filed at Request, %d at Response; want %d and %d",
				i, probe.atReq[i], probe.atResp[i], i, i+1)
		}
		if probe.statuses[i] != status {
			t.Errorf("flow %d: Response saw status %d, want %d", i, probe.statuses[i], status)
		}
	}
	if n := r.db.Native.Len(); n != len(want) || probe.filed() != int64(len(want)) {
		t.Fatalf("native %d, filed %d; want %d each", n, probe.filed(), len(want))
	}
}

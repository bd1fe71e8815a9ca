// Package core is the Panoptes framework (the paper's contribution): it
// assembles the testbed — virtual internet, vendor backends, generated
// web, Android device, transparent MITM proxy with the taint-splitting
// addon, Appium automation, and the 15 browser emulators — and runs the
// paper's campaigns: instrumented crawls (CDP or Frida), incognito and
// sensitive-category variants, and the ten-minute idle experiment.
package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/appium"
	"panoptes/internal/browser"
	"panoptes/internal/capture"
	"panoptes/internal/device"
	"panoptes/internal/faultsim"
	"panoptes/internal/frida"
	"panoptes/internal/geoip"
	"panoptes/internal/hostlist"
	"panoptes/internal/mitm"
	"panoptes/internal/netsim"
	"panoptes/internal/obs"
	"panoptes/internal/pipeline"
	"panoptes/internal/pki"
	"panoptes/internal/profiles"
	"panoptes/internal/sink"
	"panoptes/internal/taint"
	"panoptes/internal/vclock"
	"panoptes/internal/vendorsim"
	"panoptes/internal/websim"
)

// ProxyAddr is where the transparent proxy listens on the device.
const ProxyAddr = "192.168.1.100:8080"

// WorldConfig sizes the testbed.
type WorldConfig struct {
	// Sites is the crawl-list size (half Tranco, half Curlie-sensitive).
	// The paper uses 1000; the default is 200 for tractable runs.
	Sites int
	// Profiles selects the browsers; nil means all 15.
	Profiles []*profiles.Profile
	// DisableCertCache / DisableKeepAlive feed the proxy ablations.
	DisableCertCache bool
	DisableKeepAlive bool
	// DisableTLSResume turns off TLS session resumption everywhere:
	// the proxy stops issuing session tickets and caching upstream
	// sessions, and browsers drop their client session caches. Every
	// connection then pays a full handshake — the cold path the
	// determinism suite compares resumed campaigns against.
	DisableTLSResume bool
	// UpstreamRTT models wall-clock wide-area latency on every proxied
	// exchange (see mitm.Config.UpstreamRTT). Zero — the default, and
	// what every test uses — keeps the instant in-memory network.
	UpstreamRTT time.Duration
	// Retain selects which capture databases keep flows resident in
	// memory (capture.RetainAll, the default, RetainNative or
	// RetainNone). With streaming analysis on the commit tap, dropping
	// flows bounds resident memory; checkpointing and post-hoc exports
	// need full retention.
	Retain capture.RetainMode
	// Sinks, when non-empty, wires an export plane (internal/sink) next
	// to the analysis pipeline on the commit tap: committed flows (and
	// end-of-campaign analyzer deltas) batch and fan out to these
	// backends under the same attempt quarantine the analyses see.
	Sinks []sink.Publisher
	// SinkConfig sizes the exporter (batching, queue bound, policy,
	// per-sink breakers). Its Now is overridden with the world's virtual
	// clock.
	SinkConfig sink.Config
	// Transports lists the data-plane protocols the capture plane
	// dissects (capture.TransportH1/H2/WS/DoH). Nil enables all; h1 is
	// always on. Browsers skip native h2 and WebSocket behaviours for
	// disabled transports, mirroring the proxy.
	Transports []string
	// DisableH3Block leaves UDP/443 open (the -block-h3=false ablation):
	// QUIC-attempting browsers reach h3-advertising origins over UDP and
	// that traffic bypasses interception entirely.
	DisableH3Block bool
}

// World is the fully-assembled testbed.
type World struct {
	Clock  *vclock.Clock
	Inet   *netsim.Internet
	Device *device.Device

	PublicCA *pki.CA
	MitmCA   *pki.CA

	Vendors *vendorsim.Vendors
	Sites   []*websim.Site
	Hosting *websim.Hosting

	Proxy    *mitm.Proxy
	DB       *capture.DB
	Visits   *capture.VisitContext
	Splitter *taint.SplitterAddon
	Token    string
	// Pipeline is the commit tap on DB: every committed flow streams
	// through the registered analyzers; a quarantined attempt's flows
	// never reach them. Suite holds the standard analyzers (figures, Table 2,
	// leak scans, DNS, trackable IDs, Listing 1) registered on it.
	Pipeline *pipeline.Pipeline
	Suite    *analysis.Suite
	// Exporter is the export plane riding the commit tap beside the
	// pipeline (nil when WorldConfig.Sinks is empty). Close stops it.
	Exporter *sink.Exporter
	// Trace collects one span tree per page visit (navigate → intercept →
	// mitm → capture), stamped with the virtual clock.
	Trace *obs.Tracer

	Hostlist *hostlist.List
	FridaDev *frida.Device

	// Faults is the installed fault injector (nil = fault-free). Install
	// with InstallFaults so every substrate layer sees the same plan.
	Faults *faultsim.Injector

	Browsers map[string]*browser.Browser // by profile name

	AppiumClient *appium.Client

	proxyListener  *netsim.Listener
	appiumListener *netsim.Listener
	appiumHTTP     *http.Server
}

// appAdapter bridges browser.Browser to appium.App.
type appAdapter struct{ b *browser.Browser }

func (a appAdapter) Launch() error { return a.b.Launch() }
func (a appAdapter) Stop()         { a.b.Stop() }
func (a appAdapter) Reset() error  { return a.b.Reset() }
func (a appAdapter) Running() bool { return a.b.Running() }
func (a appAdapter) UITap(id string) error {
	return a.b.UITap(id)
}
func (a appAdapter) UIElements() []appium.UIElement {
	els := a.b.UIElements()
	out := make([]appium.UIElement, len(els))
	for i, e := range els {
		out[i] = appium.UIElement{ID: e.ID, Text: e.Text, Class: e.Class, Enabled: e.Enabled}
	}
	return out
}

// NewWorld assembles the testbed.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 200
	}
	if cfg.Profiles == nil {
		cfg.Profiles = profiles.All()
	}

	clock := vclock.New()
	inet := netsim.New()
	dev, err := device.New(clock, inet)
	if err != nil {
		return nil, fmt.Errorf("core: device: %w", err)
	}
	dev.DisableH3Block = cfg.DisableH3Block

	publicCA, err := pki.NewCA("Panoptes Public Web Root", clock.Now)
	if err != nil {
		return nil, fmt.Errorf("core: public CA: %w", err)
	}
	mitmCA, err := pki.NewCA("mitmproxy (Panoptes)", clock.Now)
	if err != nil {
		return nil, fmt.Errorf("core: mitm CA: %w", err)
	}
	// The testbed installs both roots in the device trust store: the
	// public root is what Android ships; the mitm root is §2.2's step.
	dev.InstallCA(publicCA.Cert)
	dev.InstallCA(mitmCA.Cert)

	vendors, err := vendorsim.Setup(inet, publicCA, clock.Now)
	if err != nil {
		return nil, fmt.Errorf("core: vendors: %w", err)
	}
	sites := websim.Dataset(cfg.Sites)
	hosting, err := websim.Host(inet, publicCA, sites)
	if err != nil {
		return nil, fmt.Errorf("core: hosting: %w", err)
	}

	w := &World{
		Clock: clock, Inet: inet, Device: dev,
		PublicCA: publicCA, MitmCA: mitmCA,
		Vendors: vendors, Sites: sites, Hosting: hosting,
		DB: capture.NewDB(), Visits: capture.NewVisitContext(),
		Hostlist: hostlist.Bundled(),
		FridaDev: frida.NewDevice(),
		Browsers: make(map[string]*browser.Browser),
	}
	w.Token = taint.NewToken()
	w.Splitter = taint.NewSplitter(w.Token, w.DB, w.Visits)
	w.Trace = obs.NewTracer(clock.Now)

	// Streaming analysis plane: the suite's analyzers ride the commit
	// tap, folding every flow in as it is stored. Wired before the proxy
	// goroutines start, which publishes the tap safely.
	names := make([]string, len(cfg.Profiles))
	for i, p := range cfg.Profiles {
		names[i] = p.Name
	}
	w.Pipeline = pipeline.New()
	w.Suite = analysis.NewSuite(w.Hostlist, names)
	w.Suite.Register(w.Pipeline)
	if len(cfg.Sinks) > 0 {
		sc := cfg.SinkConfig
		sc.Now = clock.Now
		w.Exporter = sink.NewExporter(sc, cfg.Sinks...)
		w.DB.SetTap(capture.Taps{w.Pipeline, w.Exporter})
	} else {
		w.DB.SetTap(w.Pipeline)
	}
	if err := w.DB.SetRetention(cfg.Retain); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// The proxy container runs under its own UID: its upstream dials are
	// not re-diverted by the per-browser rules.
	proxyPkg := dev.Install("org.debian.mitmproxy")
	proxy, err := mitm.New(mitm.Config{
		CA:            mitmCA,
		UpstreamRoots: publicCA.TLSClientTemplate(clock.Now),
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return dev.DialContext(ctx, proxyPkg.UID, addr)
		},
		Now:              clock.Now,
		DisableCertCache: cfg.DisableCertCache,
		DisableKeepAlive: cfg.DisableKeepAlive,
		DisableTLSResume: cfg.DisableTLSResume,
		UpstreamRTT:      cfg.UpstreamRTT,
		Trace:            w.Trace,
		Transports:       cfg.Transports,
	})
	if err != nil {
		return nil, fmt.Errorf("core: proxy: %w", err)
	}
	proxy.Use(w.Splitter)
	w.Proxy = proxy

	pl, err := inet.ListenIP(dev.IP, 8080)
	if err != nil {
		return nil, fmt.Errorf("core: proxy listener: %w", err)
	}
	w.proxyListener = pl
	go proxy.Serve(pl)

	// Appium server on the control network.
	appiumSrv := appium.NewServer()
	al, err := inet.ListenIP(net.IPv4(10, 222, 255, 1), 4723)
	if err != nil {
		return nil, fmt.Errorf("core: appium listener: %w", err)
	}
	w.appiumListener = al
	w.appiumHTTP = &http.Server{Handler: appiumSrv.Handler()}
	go w.appiumHTTP.Serve(al)
	w.AppiumClient = appium.NewClient("http://10.222.255.1:4723",
		func(ctx context.Context, addr string) (net.Conn, error) {
			return inet.Dial(ctx, addr)
		})

	// Build the browsers, each with its own control address for CDP.
	for i, p := range cfg.Profiles {
		b := browser.New(p, browser.Options{
			Device:           dev,
			Clock:            clock,
			PublicRoots:      publicCA.Pool(),
			FridaDevice:      w.FridaDev,
			ControlIP:        net.IPv4(10, 222, 0, byte(i+1)),
			ControlPort:      9222,
			DisableTLSResume: cfg.DisableTLSResume,
			Transports:       cfg.Transports,
		})
		w.Browsers[p.Name] = b
		w.Visits.SetBrowser(b.UID(), p.Name)
		appiumSrv.RegisterApp(p.Package, appAdapter{b})
	}
	return w, nil
}

// InstallFaults wires a fault injector through every substrate layer:
// app-layer dials (device), raw lookups/dials (netsim chaos hook), the
// MITM proxy's handshake and exchange paths, the vendor DoH resolvers'
// SERVFAIL hook, and each browser's navigate/CDP entry points.
// RunCampaign arms the injector per navigation attempt. Passing nil
// uninstalls everything.
func (w *World) InstallFaults(inj *faultsim.Injector) {
	w.Faults = inj
	if inj == nil {
		w.Device.SetDialFault(nil)
		w.Inet.SetFaultHook(nil)
	} else {
		w.Device.SetDialFault(inj.DialFault)
		w.Inet.SetFaultHook(inj.NetHook())
	}
	w.Proxy.SetFaults(inj)
	if w.Exporter != nil {
		if inj == nil {
			w.Exporter.SetFaultHook(nil)
		} else {
			w.Exporter.SetFaultHook(inj.SinkFault)
		}
	}
	w.Vendors.DoHCloudflare.SetServFailFunc(inj.DNSServFail)
	w.Vendors.DoHGoogle.SetServFailFunc(inj.DNSServFail)
	for _, b := range w.Browsers {
		b.SetFaults(inj)
	}
}

// GeoDB builds the IP-to-country database from the virtual internet's
// allocation table (the iplocation.net stand-in).
func (w *World) GeoDB() (*geoip.DB, error) {
	blocks := w.Inet.Blocks()
	allocs := make([]geoip.Allocation, len(blocks))
	for i, b := range blocks {
		allocs[i] = geoip.Allocation{CIDR: b.CIDR, Country: b.Country}
	}
	return geoip.Build(allocs)
}

// Browser returns a browser by profile name.
func (w *World) Browser(name string) (*browser.Browser, error) {
	b, ok := w.Browsers[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown browser %q", name)
	}
	return b, nil
}

// Close tears the testbed down.
func (w *World) Close() {
	if w.Exporter != nil {
		w.Exporter.Close()
	}
	for _, b := range w.Browsers {
		b.Stop()
	}
	if w.appiumHTTP != nil {
		w.appiumHTTP.Close()
	}
	if w.appiumListener != nil {
		w.appiumListener.Close()
	}
	if w.proxyListener != nil {
		w.proxyListener.Close()
	}
	if w.Proxy != nil {
		w.Proxy.Close()
	}
	w.Hosting.Close()
	w.Vendors.Close()
}

// Advance drives the virtual clock (convenience passthrough).
func (w *World) Advance(d time.Duration) { w.Clock.Advance(d) }

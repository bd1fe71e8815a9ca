package core

import (
	"crypto/tls"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
	"panoptes/internal/obs"
	"panoptes/internal/profiles"
	"panoptes/internal/vclock"
	"panoptes/internal/websim"
)

// smallWorld builds a testbed with a handful of sites and the given
// browsers (nil = all 15).
func smallWorld(t *testing.T, sites int, names ...string) *World {
	t.Helper()
	var profs []*profiles.Profile
	if len(names) > 0 {
		for _, n := range names {
			p := profiles.ByName(n)
			if p == nil {
				t.Fatalf("no profile %q", n)
			}
			profs = append(profs, p)
		}
	}
	w, err := NewWorld(WorldConfig{Sites: sites, Profiles: profs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldAssembly(t *testing.T) {
	w := smallWorld(t, 10)
	if len(w.Browsers) != 15 {
		t.Fatalf("browsers = %d", len(w.Browsers))
	}
	if len(w.Sites) != 10 {
		t.Fatalf("sites = %d", len(w.Sites))
	}
	// GeoDB knows the vendor countries.
	db, err := w.GeoDB()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := w.Inet.LookupHost("sba.yandex.net")
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := db.Lookup(ip); !ok || c != "RU" {
		t.Fatalf("sba.yandex.net geolocates to %q, %v", c, ok)
	}
}

// TestWorldCloseLeavesNoGoroutines checks that Close stops every
// goroutine NewWorld and a campaign started: a leftover accept loop
// keeps the closed world, and everything it references, reachable.
func TestWorldCloseLeavesNoGoroutines(t *testing.T) {
	for _, campaign := range []bool{false, true} {
		base := runtime.NumGoroutine()
		w, err := NewWorld(WorldConfig{Sites: 2})
		if err != nil {
			t.Fatal(err)
		}
		if campaign {
			if _, err := w.RunCampaign(CampaignConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("campaign=%v: %d goroutines after Close, %d before NewWorld:\n%s",
					campaign, runtime.NumGoroutine(), base, buf)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestCampaignCDPBrowserSplitsTraffic(t *testing.T) {
	w := smallWorld(t, 6, "Chrome")
	res, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:4]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 4 || res.Errors != 0 {
		t.Fatalf("visits = %d errors = %d (%+v)", len(res.Visits), res.Errors, res.Visits)
	}
	eng := w.DB.Engine.ByBrowser("Chrome")
	nat := w.DB.Native.ByBrowser("Chrome")
	if len(eng) == 0 {
		t.Fatal("no engine flows")
	}
	if len(nat) == 0 {
		t.Fatal("no native flows")
	}
	// Engine flows carry the visited page; Chrome's native flows are DoH
	// and safe-browsing, never the full URL of the page in the query.
	for _, f := range eng {
		if f.VisitURL == "" {
			t.Fatalf("engine flow without visit annotation: %+v", f)
		}
		if f.HeaderGet("X-Panoptes-Taint") != "" {
			t.Fatal("taint header survived into the stored flow")
		}
	}
	// Chrome uses Google DoH: dns.google must appear among native hosts.
	hosts := map[string]bool{}
	for _, f := range nat {
		hosts[f.Host] = true
	}
	if !hosts["dns.google"] {
		t.Fatalf("Chrome native hosts missing dns.google: %v", hosts)
	}
	// Engine flows outnumber native ones for Chrome (low ratio profile).
	if len(nat) >= len(eng) {
		t.Fatalf("Chrome native (%d) >= engine (%d)", len(nat), len(eng))
	}
}

func TestCampaignFridaBrowser(t *testing.T) {
	w := smallWorld(t, 6, "QQ")
	res, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:3]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 3 {
		t.Fatalf("visits = %d", len(res.Visits))
	}
	eng := w.DB.Engine.ByBrowser("QQ")
	nat := w.DB.Native.ByBrowser("QQ")
	if len(eng) == 0 || len(nat) == 0 {
		t.Fatalf("engine=%d native=%d", len(eng), len(nat))
	}
	// QQ's wup report must carry the full visited URL in its body.
	found := false
	for _, f := range nat {
		if f.Host == "wup.browser.qq.com" && strings.Contains(string(f.Body), w.Sites[0].URL()) {
			found = true
		}
	}
	if !found {
		t.Fatal("QQ full-URL report not captured")
	}
	// And the vendor server in China actually received it.
	wup := w.Vendors.Backend("wup.browser.qq.com")
	got := false
	for _, r := range wup.Requests() {
		if strings.Contains(r.Body, w.Sites[0].URL()) {
			got = true
		}
	}
	if !got {
		t.Fatal("wup backend did not receive the URL")
	}
}

func TestYandexLeaksBase64URLAndUUID(t *testing.T) {
	w := smallWorld(t, 4, "Yandex")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	nat := w.DB.Native.ByBrowser("Yandex")
	var sba, api int
	for _, f := range nat {
		switch f.Host {
		case "sba.yandex.net":
			sba++
			if !strings.Contains(f.RawQuery, "url=") {
				t.Fatalf("sba query = %q", f.RawQuery)
			}
		case "api.browser.yandex.ru":
			if strings.Contains(f.RawQuery, "uuid=") {
				api++
			}
		}
	}
	if sba < 2 || api < 2 {
		t.Fatalf("sba=%d api=%d, want >=2 each (one per visit)", sba, api)
	}
}

func TestPersistentIdentifierSurvivesVisitsDiesOnReset(t *testing.T) {
	w := smallWorld(t, 4, "Yandex")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	uuids := map[string]bool{}
	for _, f := range w.DB.Native.ByBrowser("Yandex") {
		if f.Host != "api.browser.yandex.ru" {
			continue
		}
		for _, kv := range strings.Split(f.RawQuery, "&") {
			if v, ok := strings.CutPrefix(kv, "uuid="); ok {
				uuids[v] = true
			}
		}
	}
	if len(uuids) != 1 {
		t.Fatalf("uuids across visits = %d, want 1 (persistent)", len(uuids))
	}
	// A second campaign (with factory reset) mints a new identifier.
	w.DB.Reset()
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:1]}); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.DB.Native.ByBrowser("Yandex") {
		if f.Host != "api.browser.yandex.ru" {
			continue
		}
		for _, kv := range strings.Split(f.RawQuery, "&") {
			if v, ok := strings.CutPrefix(kv, "uuid="); ok {
				uuids[v] = true
			}
		}
	}
	if len(uuids) != 2 {
		t.Fatalf("uuids after reset = %d, want 2", len(uuids))
	}
}

func TestUCLeaksViaInjectedScript(t *testing.T) {
	w := smallWorld(t, 4, "UC International")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	// The beacon goes through the ENGINE (injected script), not native.
	engine := w.DB.Engine.ByBrowser("UC International")
	var beacons int
	for _, f := range engine {
		if f.Host == "gjapi.ucweb.com" {
			beacons++
			if !strings.Contains(f.RawQuery, "city=Heraklion") || !strings.Contains(f.RawQuery, "isp=FORTHnet") {
				t.Fatalf("beacon query = %q", f.RawQuery)
			}
		}
	}
	if beacons < 2 {
		t.Fatalf("beacons = %d, want one per visit", beacons)
	}
	for _, f := range w.DB.Native.ByBrowser("UC International") {
		if f.Host == "gjapi.ucweb.com" {
			t.Fatal("UC beacon classified native; should ride the engine")
		}
	}
}

func TestIncognitoCampaignStillLeaks(t *testing.T) {
	w := smallWorld(t, 4, "Edge", "Yandex")
	res, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2], Incognito: true})
	if err != nil {
		t.Fatal(err)
	}
	// Yandex has no incognito mode and is skipped (footnote 5).
	if len(res.Skipped) != 1 || res.Skipped[0] != "Yandex" {
		t.Fatalf("skipped = %v", res.Skipped)
	}
	// Edge keeps reporting visited domains to Bing in incognito.
	var bing int
	for _, f := range w.DB.Native.ByBrowser("Edge") {
		if f.Host == "api.bing.com" && f.Incognito {
			bing++
		}
	}
	if bing < 2 {
		t.Fatalf("incognito bing reports = %d", bing)
	}
}

func TestIdleExperiment(t *testing.T) {
	w := smallWorld(t, 4, "Opera", "Brave")
	opera, err := w.RunIdle("Opera", 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	brave, err := w.RunIdle("Brave", 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if opera.Series.Total == 0 || brave.Series.Total == 0 {
		t.Fatalf("opera=%d brave=%d idle requests", opera.Series.Total, brave.Series.Total)
	}
	// Opera (news feed, ads) phones home much more than Brave.
	if opera.Series.Total <= 2*brave.Series.Total {
		t.Fatalf("opera %d vs brave %d: expected opera >> brave", opera.Series.Total, brave.Series.Total)
	}
	if n := len(opera.Series.Cumulative); n != 60 || opera.Series.Cumulative[n-1] != opera.Series.Total {
		t.Fatalf("opera timeline: %d bins ending at %v, want 60 ending at %d", n, opera.Series.Cumulative, opera.Series.Total)
	}
	// Idle flows carry no visit annotation (nothing was crawled).
	for _, f := range w.DB.Native.All() {
		if f.VisitURL != "" {
			t.Fatalf("idle flow has visit %q", f.VisitURL)
		}
	}
	// Opera's idle mix includes doubleclick.net (Fig. 5: 21.9%).
	if opera.Series.DestShares["doubleclick.net"] == 0 {
		t.Fatalf("no idle doubleclick traffic from Opera: %v", opera.Series.DestShares)
	}
}

func TestCampaignSensitiveSites(t *testing.T) {
	w := smallWorld(t, 8, "Yandex")
	var sensitive []*websim.Site
	for _, s := range w.Sites {
		if s.Category.Sensitive() {
			sensitive = append(sensitive, s)
		}
	}
	if len(sensitive) == 0 {
		t.Fatal("no sensitive sites in dataset")
	}
	if _, err := w.RunCampaign(CampaignConfig{Sites: sensitive[:2]}); err != nil {
		t.Fatal(err)
	}
	// The full sensitive URL reaches sba (Base64) — no local filtering.
	found := 0
	for _, f := range w.DB.Native.ByBrowser("Yandex") {
		if f.Host == "sba.yandex.net" && f.VisitURL != "" {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("sensitive sba reports = %d", found)
	}
}

func TestEngineAdBlockCocCoc(t *testing.T) {
	w := smallWorld(t, 6, "CocCoc", "Chrome")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:3]}); err != nil {
		t.Fatal(err)
	}
	// CocCoc's engine blocks ad embeds; Chrome's does not.
	adEngine := func(name string) int {
		n := 0
		for _, f := range w.DB.Engine.ByBrowser(name) {
			if w.Hostlist.AdRelated(f.Host) {
				n++
			}
		}
		return n
	}
	if got := adEngine("CocCoc"); got != 0 {
		t.Fatalf("CocCoc engine ad flows = %d, want 0 (easylist)", got)
	}
	if got := adEngine("Chrome"); got == 0 {
		t.Fatal("Chrome engine should fetch ad embeds")
	}
	// But CocCoc still talks to adjust.com natively (§3.1).
	adjust := false
	for _, f := range w.DB.Native.ByBrowser("CocCoc") {
		if strings.HasSuffix(f.Host, "adjust.com") {
			adjust = true
		}
	}
	if !adjust {
		t.Fatal("CocCoc native adjust.com traffic missing")
	}
}

func TestDNSModesObservable(t *testing.T) {
	w := smallWorld(t, 4, "Edge", "Yandex")
	stub := obs.Default.Counter("dns_queries_total", "transport", "stub", "type", dnsmsg.TypeA.String())
	before := stub.Value()
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	// Edge (DoH-Cloudflare): queried names visible at the resolver.
	cfNames := w.Vendors.DoHCloudflare.QueriedNames()
	if len(cfNames) == 0 {
		t.Fatal("cloudflare DoH saw no queries from Edge")
	}
	// Yandex (local): resolved through the device stub. Edge resolves
	// over DoH, so Yandex is the only browser here that moves the
	// stub's counter.
	if w.Browsers["Edge"].Profile.DNS != profiles.DNSDoHCloudflare {
		t.Fatal("Edge resolves through the stub; the counter cannot single out Yandex")
	}
	if stub.Value() == before {
		t.Fatal("stub resolver saw no Yandex queries")
	}
	// And Yandex never queried DoH (its UID produced no flows there).
	for _, f := range w.DB.Native.ByBrowser("Yandex") {
		if f.Host == "cloudflare-dns.com" || f.Host == "dns.google" {
			t.Fatalf("Yandex used DoH: %+v", f)
		}
	}
}

func TestPinnedHostSuppressed(t *testing.T) {
	w := smallWorld(t, 4, "QQ")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	// cloud.browser.qq.com is pinned: nothing from it may appear in the
	// capture DB, and the proxy must have seen handshake failures.
	for _, f := range w.DB.Native.ByBrowser("QQ") {
		if f.Host == "cloud.browser.qq.com" {
			t.Fatal("pinned host traffic captured")
		}
	}
	if w.Proxy.HandshakeFailures() == 0 {
		t.Fatal("no handshake failures recorded for the pinned host")
	}
}

func TestVisitRecordLoadTimes(t *testing.T) {
	w := smallWorld(t, 4, "Brave")
	res, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Visits {
		if v.LoadTimeMs <= 0 {
			t.Fatalf("visit %s load time %d", v.URL, v.LoadTimeMs)
		}
	}
	// Virtual clock advanced by at least the two settle windows.
	if w.Clock.Since(vclockEpoch()) < 10*time.Second {
		t.Fatalf("clock only advanced %v", w.Clock.Since(vclockEpoch()))
	}
}

func vclockEpoch() time.Time { return vclock.Epoch }

// TestCampaignAccountsBothLegs checks that both legs of an intercepted
// exchange cross the device network stack: the browser's diverted
// connections and the proxy's upstream dials each reach the per-UID eBPF
// byte accounting in both directions.
func TestCampaignAccountsBothLegs(t *testing.T) {
	w := smallWorld(t, 4, "Brave")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	proxyUID, err := w.Device.UIDOf("org.debian.mitmproxy")
	if err != nil {
		t.Fatal(err)
	}
	for name, uid := range map[string]int{"Brave": w.Browsers["Brave"].Pkg.UID, "mitmproxy": proxyUID} {
		key := strconv.Itoa(uid)
		tx, rx := w.Device.Accounting.TxBytes.Get(key), w.Device.Accounting.RxBytes.Get(key)
		if tx == 0 || rx == 0 {
			t.Errorf("%s (uid %d): tx=%d rx=%d, want both non-zero", name, uid, tx, rx)
		}
	}
}

func TestCampaignSkipResetPreservesIdentifier(t *testing.T) {
	w := smallWorld(t, 4, "Yandex")
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:1]}); err != nil {
		t.Fatal(err)
	}
	b := w.Browsers["Yandex"]
	uuid1, _ := w.Device.StorageGet(b.Pkg.Name, "install_uuid")
	// SkipReset keeps app data (and so the identifier) across campaigns.
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:1], SkipReset: true}); err != nil {
		t.Fatal(err)
	}
	uuid2, _ := w.Device.StorageGet(b.Pkg.Name, "install_uuid")
	if uuid1 == "" || uuid1 != uuid2 {
		t.Fatalf("identifier changed despite SkipReset: %q vs %q", uuid1, uuid2)
	}
	// A regular (resetting) campaign rotates it.
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:1]}); err != nil {
		t.Fatal(err)
	}
	uuid3, _ := w.Device.StorageGet(b.Pkg.Name, "install_uuid")
	if uuid3 == uuid1 {
		t.Fatal("identifier survived factory reset")
	}
}

func TestCampaignCustomSettle(t *testing.T) {
	w := smallWorld(t, 4, "Brave")
	before := w.Clock.Now()
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:1], Settle: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	elapsed := w.Clock.Now().Sub(before)
	if elapsed < 30*time.Second {
		t.Fatalf("virtual elapsed %v, want >= settle 30s", elapsed)
	}
}

func TestRunIdleAll(t *testing.T) {
	w := smallWorld(t, 4, "Brave", "DuckDuckGo")
	out, err := w.RunIdleAll(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	for name, r := range out {
		if r.Series.Browser != name || r.Series.Total == 0 {
			t.Errorf("%s: no idle requests in %+v", name, r.Series)
		}
		if r.End.Sub(r.Start) != 2*time.Minute {
			t.Errorf("%s: window %v", name, r.End.Sub(r.Start))
		}
	}
}

func TestUnknownBrowserCampaign(t *testing.T) {
	w := smallWorld(t, 4, "Brave")
	if _, err := w.RunCampaign(CampaignConfig{Browsers: []string{"Netscape"}}); err == nil {
		t.Fatal("unknown browser accepted")
	}
	if _, err := w.RunIdle("Netscape", time.Minute); err == nil {
		t.Fatal("unknown idle browser accepted")
	}
}

func TestHungSiteNavigationTimeout(t *testing.T) {
	w := smallWorld(t, 4, "Chrome")
	// A site whose document never finishes loading: the paper's 60-second
	// ceiling (shrunk here) must fire and the campaign must continue.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	l, _, err := w.Inet.ListenDomain("hang.example", "US", 443)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := w.PublicCA.Issue("hang.example")
	if err != nil {
		t.Fatal(err)
	}
	var hungRequests atomic.Int32
	// Sized above the most hung exchanges the campaign starts (one per
	// attempt, MaxAttempts 3), so the hook never blocks the proxy.
	hungFinished := make(chan struct{}, 8)
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		hungRequests.Add(1)
		<-release
	})}
	go srv.Serve(tls.NewListener(l, &tls.Config{Certificates: []tls.Certificate{cert}}))
	t.Cleanup(func() { srv.Close() })
	// Registered after the taint splitter, so it runs once the splitter
	// has handed the finished flow to the capture gate.
	w.Proxy.Use(responseHook(func(f *capture.Flow) {
		if f.Host == "hang.example" {
			hungFinished <- struct{}{}
		}
	}))

	hung := &websim.Site{Domain: "hang.example", Category: websim.CategoryGeneral, LoadTimeMs: 100}
	sites := []*websim.Site{hung, w.Sites[0]}
	res, err := w.RunCampaign(CampaignConfig{Sites: sites, NavigateTimeout: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 2 {
		t.Fatalf("visits = %d", len(res.Visits))
	}
	if res.Visits[0].Err == "" {
		t.Fatal("hung site did not time out")
	}
	if res.Visits[1].Err != "" {
		t.Fatalf("campaign did not recover: %+v", res.Visits[1])
	}

	// The hung exchanges outlive their removed attempts. Once the origin
	// answers, each flow reaches the gate late and must be dropped, not
	// parked or committed.
	n := hungRequests.Load()
	if n == 0 {
		t.Fatal("the hung origin never saw a request")
	}
	releaseOnce()
	timeout := time.After(10 * time.Second)
	for i := int32(0); i < n; i++ {
		select {
		case <-hungFinished:
		case <-timeout:
			t.Fatalf("%d of %d hung exchanges finished after the release", i, n)
		}
	}
	if e, nat := w.DB.Engine.Pending(), w.DB.Native.Pending(); e != 0 || nat != 0 {
		t.Fatalf("late flows parked in the gate: engine %d native %d", e, nat)
	}
	for _, f := range append(w.DB.Engine.All(), w.DB.Native.All()...) {
		if f.Host == "hang.example" {
			t.Fatalf("a removed attempt's late flow was committed: %+v", f)
		}
	}
}

// responseHook is an mitm addon that calls itself from every flow's
// Response hook.
type responseHook func(*capture.Flow)

func (responseHook) Request(*capture.Flow, *http.Request)         {}
func (h responseHook) Response(f *capture.Flow, _ *http.Response) { h(f) }

func TestVendorOutageDoesNotBreakCrawl(t *testing.T) {
	w := smallWorld(t, 4, "Yandex")
	// Take Yandex's phone-home endpoint offline: its native requests 502
	// through the proxy, but navigation succeeds.
	ip, err := w.Inet.LookupHost("sba.yandex.net")
	if err != nil {
		t.Fatal(err)
	}
	// Closing the vendor's listener simulates the outage.
	// (Re-listen is not needed; the domain keeps resolving.)
	if !w.Inet.HasListener(ip.String() + ":443") {
		t.Fatal("sba listener missing")
	}
	// Find and close via a raw dial trick: vendorsim keeps servers
	// private, so close the listener address through a fresh listener
	// conflict check instead — simplest is to drop traffic with a DROP
	// rule for that destination.
	if err := w.Device.Firewall.Exec("-t filter -A OUTPUT -d " + ip.String() + " -j DROP"); err != nil {
		t.Fatal(err)
	}
	res, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("navigation errors = %d", res.Errors)
	}
	// The attempted phone-homes never reached the vendor.
	if got := w.Vendors.Backend("sba.yandex.net").Count(); got != 0 {
		t.Fatalf("vendor received %d requests through a DROP rule", got)
	}
}

func TestWorldCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := NewWorld(WorldConfig{Sites: 4, Profiles: []*profiles.Profile{profiles.Chrome()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Server accept loops and pooled connections wind down asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+25 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}

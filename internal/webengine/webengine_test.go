package webengine

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"panoptes/internal/netsim"
	"panoptes/internal/pki"
	"panoptes/internal/websim"
)

// rig hosts a small generated web and returns an engine over it.
func rig(t *testing.T) (*Engine, []*websim.Site, *netsim.Internet) {
	t.Helper()
	inet := netsim.New()
	ca, err := pki.NewCA("Public Web Root", nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := websim.TrancoTop(3)
	h, err := websim.Host(inet, ca, sites)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	e := New(Config{
		UserAgent: "panoptes-test/1.0",
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return inet.Dial(ctx, addr)
		},
		TLS: ca.TLSClientTemplate(nil),
	})
	return e, sites, inet
}

func TestNavigateFetchesAllResources(t *testing.T) {
	e, sites, _ := rig(t)
	res, err := e.Navigate(sites[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("status = %d", res.Status)
	}
	// Document + every sub-resource.
	want := 1 + len(sites[0].Resources)
	if res.Requests != want {
		t.Fatalf("requests = %d, want %d", res.Requests, want)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	if res.LoadTimeMs != sites[0].LoadTimeMs {
		t.Fatalf("load time = %d, want %d", res.LoadTimeMs, sites[0].LoadTimeMs)
	}
	if res.BytesReceived <= int64(sites[0].DocSize) {
		t.Fatalf("bytes = %d", res.BytesReceived)
	}
}

func TestInterceptorSeesEveryRequest(t *testing.T) {
	e, sites, _ := rig(t)
	var (
		mu   sync.Mutex
		urls []string
	)
	e.SetInterceptor(func(req *http.Request) error {
		// Sub-resource fetches run concurrently, so the interceptor is
		// called from multiple goroutines.
		mu.Lock()
		urls = append(urls, req.URL.String())
		mu.Unlock()
		req.Header.Set("X-Test-Taint", "yes")
		return nil
	})
	res, err := e.Navigate(sites[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	seen := len(urls)
	mu.Unlock()
	if seen < res.Requests {
		t.Fatalf("interceptor saw %d of %d", seen, res.Requests)
	}
}

func TestInterceptorAbortBlocksRequest(t *testing.T) {
	e, sites, _ := rig(t)
	e.SetInterceptor(func(req *http.Request) error {
		if strings.Contains(req.URL.Host, "doubleclick") {
			return fmt.Errorf("blocked")
		}
		return nil
	})
	res, err := e.Navigate(sites[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	// The site embeds ad resources; blocked ones count as failed.
	adCount := 0
	for _, r := range sites[0].Resources {
		if strings.Contains(r.URL, "doubleclick") {
			adCount++
		}
	}
	if adCount > 0 && res.Failed < adCount {
		t.Fatalf("failed = %d, want >= %d blocked", res.Failed, adCount)
	}
}

func TestRequestObserver(t *testing.T) {
	e, sites, _ := rig(t)
	var n atomic.Int64
	e.SetRequestObserver(func(string) { n.Add(1) })
	res, _ := e.Navigate(sites[0].URL())
	if int(n.Load()) != res.Requests {
		t.Fatalf("observer saw %d of %d", n.Load(), res.Requests)
	}
}

func TestInjectionRunsPerNavigation(t *testing.T) {
	e, sites, inet := rig(t)
	// Host the injected-script server.
	l, _, err := inet.ListenDomain("inject.example", "CA", 80)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("// injected"))
	})}
	go srv.Serve(l)
	defer srv.Close()

	var beacons []string
	e.AddInjection(Injection{
		Name:      "test",
		ScriptURL: "http://inject.example/gj.js",
		Execute: func(eng *Engine, pageURL string) error {
			beacons = append(beacons, pageURL)
			return nil
		},
	})
	e.Navigate(sites[0].URL())
	e.Navigate(sites[1].URL())
	if len(beacons) != 2 || beacons[0] != sites[0].URL() {
		t.Fatalf("beacons = %v", beacons)
	}
}

func TestResolveCalledOncePerHost(t *testing.T) {
	inet := netsim.New()
	ca, _ := pki.NewCA("Root", nil)
	sites := websim.TrancoTop(1)
	h, err := websim.Host(inet, ca, sites)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Sub-resource fetches resolve distinct hosts concurrently.
	var mu sync.Mutex
	resolved := map[string]int{}
	e := New(Config{
		UserAgent: "t",
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return inet.Dial(ctx, addr)
		},
		TLS:     ca.TLSClientTemplate(nil),
		Resolve: func(host string) error { mu.Lock(); resolved[host]++; mu.Unlock(); return nil },
	})
	e.Navigate(sites[0].URL())
	e.Navigate(sites[0].URL())
	for host, n := range resolved {
		if n != 1 {
			t.Errorf("%s resolved %d times", host, n)
		}
	}
	if resolved[sites[0].Domain] != 1 {
		t.Fatalf("site domain not resolved: %v", resolved)
	}
	// A session reset clears the cache.
	e.ResetSession()
	e.Navigate(sites[0].URL())
	if resolved[sites[0].Domain] != 2 {
		t.Fatalf("reset did not clear resolver cache: %v", resolved)
	}
}

func TestNavigateUnknownHost(t *testing.T) {
	e, _, _ := rig(t)
	res, err := e.Navigate("https://ghost.example/")
	if err == nil {
		t.Fatal("navigation to unknown host succeeded")
	}
	if res.Failed != 1 || res.Requests != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestExtractResourceURLs(t *testing.T) {
	doc := `<html><head>
<script src="https://a.example/x.js"></script>
<link rel="stylesheet" href="https://b.example/y.css">
</head><body>
<img src="https://c.example/z.png">
<script>fetch("https://d.example/api?k=v")</script>
<a href="/relative">rel</a>
<img src="https://a.example/x.js">
</body></html>`
	urls := ExtractResourceURLs(doc)
	want := []string{
		"https://a.example/x.js", "https://c.example/z.png",
		"https://b.example/y.css", "https://d.example/api?k=v",
	}
	if len(urls) != 4 {
		t.Fatalf("urls = %v", urls)
	}
	set := map[string]bool{}
	for _, u := range urls {
		set[u] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("missing %s", w)
		}
	}
}

// TestExtractResourceURLsDoNotAliasDocument: the URLs come out in the
// same order, and none points into the document, so a session that
// keeps a URL (a resolved-host key, a span attribute) does not pin the
// page.
func TestExtractResourceURLsDoNotAliasDocument(t *testing.T) {
	doc := strings.Repeat("<p>filler</p>", 64) + `
<script src="https://a.example/x.js"></script>
<link rel="stylesheet" href="https://b.example/y.css">
<img src="https://c.example/z.png">
<script>fetch("https://d.example/api?k=v")</script>
<img src="https://a.example/x.js">`
	urls := ExtractResourceURLs(doc)
	want := []string{
		"https://a.example/x.js", "https://c.example/z.png",
		"https://b.example/y.css", "https://d.example/api?k=v",
	}
	if fmt.Sprint(urls) != fmt.Sprint(want) {
		t.Fatalf("urls = %v, want %v", urls, want)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	hi := lo + uintptr(len(doc))
	for _, u := range urls {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(u))); p >= lo && p < hi {
			t.Errorf("%s aliases the document", u)
		}
	}
}

func TestExtractIgnoresRelativeAndEmpty(t *testing.T) {
	urls := ExtractResourceURLs(`<img src=""><img src="/x.png"><script src="ftp://x/y"></script>`)
	if len(urls) != 0 {
		t.Fatalf("urls = %v", urls)
	}
}

func TestFetchSingleResource(t *testing.T) {
	e, sites, _ := rig(t)
	var fp *websim.Resource
	for i := range sites[0].Resources {
		if !sites[0].Resources[i].ThirdParty {
			fp = &sites[0].Resources[i]
			break
		}
	}
	status, n, _, err := e.Fetch(fp.URL)
	if err != nil || status != 200 || int(n) != fp.Size {
		t.Fatalf("fetch = %d, %d, %v (want size %d)", status, n, err, fp.Size)
	}
	if _, _, _, err := e.Fetch("::bad::"); err == nil {
		t.Fatal("bad URL accepted")
	}
}

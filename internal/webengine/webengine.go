// Package webengine is the browser emulators' web engine: it fetches a
// page's document through the device network stack, extracts the
// sub-resources the HTML references, fetches them with browser-like
// bounded concurrency, runs registered script injections (the mechanism
// UC International uses to exfiltrate the visited URL, §3.2), and exposes
// the request-interception hook that CDP's Fetch domain (or a Frida hook)
// uses to taint every engine-originated request.
//
// Everything the engine sends goes through one http.Client whose dialer
// is the device network stack under the browser's UID — so engine traffic
// is subject to the same transparent diversion as any app traffic.
package webengine

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Interceptor observes and may mutate an engine request before it is
// sent. Returning an error aborts the request. This is where the taint
// header is injected.
type Interceptor func(req *http.Request) error

// ResolveFunc performs name resolution for its observable side effects
// (a counted stub-resolver query or a DoH HTTPS exchange).
type ResolveFunc func(host string) error

// Injection is a script a browser injects into every page. The engine
// fetches ScriptURL during the load and then runs Execute, which may
// issue further engine requests (beacons).
type Injection struct {
	Name      string
	ScriptURL string
	Execute   func(e *Engine, pageURL string) error
}

// Config configures an engine.
type Config struct {
	UserAgent string
	// Dial opens transport connections; bind it to the device stack under
	// the app's UID.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// TLS is the client TLS template (trust roots, virtual time, pins).
	TLS *tls.Config
	// Resolve performs pre-connection name resolution; nil skips it.
	Resolve ResolveFunc
	// MaxConcurrency bounds parallel sub-resource fetches (default 6,
	// matching common per-host browser limits).
	MaxConcurrency int
}

// PageResult summarises one navigation.
type PageResult struct {
	URL           string
	Status        int
	Requests      int // engine requests issued, document included
	Failed        int
	BytesReceived int64
	LoadTimeMs    int64 // modelled DOMContentLoaded latency from the site
	InjectedOK    bool  // all injections ran
}

// Engine is one browser's web engine.
type Engine struct {
	cfg    Config
	client *http.Client

	mu          sync.Mutex
	interceptor Interceptor
	onRequest   func(u string) // Network.requestWillBeSent-style observer
	injections  []Injection
	resolved    map[string]bool // hosts resolved this session
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 6
	}
	e := &Engine{cfg: cfg, resolved: make(map[string]bool)}
	e.client = &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return cfg.Dial(ctx, addr)
			},
			TLSClientConfig:     cfg.TLS,
			MaxIdleConnsPerHost: 6,
			// Crawls touch thousands of distinct hosts; the global idle
			// cap keeps the pool from pinning one TLS session per host
			// for the life of the app. Sized like a desktop-class socket
			// pool (Chromium keeps 6 per host, 256 total): evicting
			// sooner forces a fresh handshake per revisited host, which
			// dominates crawl CPU.
			MaxIdleConns:      256,
			IdleConnTimeout:   90 * time.Second,
			ForceAttemptHTTP2: false,
		},
		Timeout: 60 * time.Second, // the paper's per-page ceiling
	}
	return e
}

// SetInterceptor installs (or clears, with nil) the request interceptor.
func (e *Engine) SetInterceptor(i Interceptor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.interceptor = i
}

// Interceptor returns the current interceptor.
func (e *Engine) Interceptor() Interceptor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.interceptor
}

// SetRequestObserver installs a callback invoked with every engine
// request URL (the Network domain's event source).
func (e *Engine) SetRequestObserver(fn func(u string)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onRequest = fn
}

// AddInjection registers a page-load script injection.
func (e *Engine) AddInjection(inj Injection) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.injections = append(e.injections, inj)
}

// Close releases the engine's pooled connections.
func (e *Engine) Close() {
	e.client.CloseIdleConnections()
}

// SetTimeout sets the engine's per-request ceiling (the client timeout),
// bounding document and sub-resource fetches so NavigateTimeout holds end
// to end even when an origin stops answering. Non-positive values are
// ignored. Call it before navigating, not with requests in flight.
func (e *Engine) SetTimeout(d time.Duration) {
	if d > 0 {
		e.client.Timeout = d
	}
}

// ResolvedHosts returns the session's resolved-host cache, sorted — the
// part of engine session state a campaign checkpoint must carry so a
// resumed browser does not re-resolve (and re-leak) hosts it already
// looked up.
func (e *Engine) ResolvedHosts() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.resolved))
	for h := range e.resolved {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// SetResolvedHosts replaces the session's resolved-host cache (restore
// counterpart of ResolvedHosts).
func (e *Engine) SetResolvedHosts(hosts []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resolved = make(map[string]bool, len(hosts))
	for _, h := range hosts {
		e.resolved[h] = true
	}
}

// ResetSession clears per-session state (resolved-host cache), as opening
// an incognito window or restarting the app does.
func (e *Engine) ResetSession() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resolved = make(map[string]bool)
	e.client.CloseIdleConnections()
}

// resolveOnce performs name resolution for a host the first time the
// session touches it.
func (e *Engine) resolveOnce(host string) {
	if e.cfg.Resolve == nil {
		return
	}
	e.mu.Lock()
	done := e.resolved[host]
	if !done {
		e.resolved[host] = true
	}
	e.mu.Unlock()
	if !done {
		// Resolution failures surface later as dial errors; the lookup's
		// side effect (stub query or DoH flow) is what matters here.
		_ = e.cfg.Resolve(host)
	}
}

// Fetch issues one engine request (interceptor applied) and returns the
// status and body size, draining the body.
func (e *Engine) Fetch(rawURL string) (status int, n int64, hdr http.Header, err error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("webengine: parse %q: %w", rawURL, err)
	}
	e.resolveOnce(u.Hostname())

	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("webengine: build request: %w", err)
	}
	req.Header.Set("User-Agent", e.cfg.UserAgent)
	req.Header.Set("Accept", "*/*")

	e.mu.Lock()
	icpt := e.interceptor
	obs := e.onRequest
	e.mu.Unlock()
	if obs != nil {
		obs(rawURL)
	}
	if icpt != nil {
		if err := icpt(req); err != nil {
			return 0, 0, nil, fmt.Errorf("webengine: interception aborted %s: %w", rawURL, err)
		}
	}

	resp, err := e.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	n, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, n, resp.Header, nil
}

// FetchDocument fetches a page document and returns its body.
func (e *Engine) fetchDocument(rawURL string) (body string, hdr http.Header, status int, err error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", nil, 0, fmt.Errorf("webengine: parse %q: %w", rawURL, err)
	}
	e.resolveOnce(u.Hostname())

	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return "", nil, 0, err
	}
	req.Header.Set("User-Agent", e.cfg.UserAgent)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")

	e.mu.Lock()
	icpt := e.interceptor
	obs := e.onRequest
	e.mu.Unlock()
	if obs != nil {
		obs(rawURL)
	}
	if icpt != nil {
		if err := icpt(req); err != nil {
			return "", nil, 0, fmt.Errorf("webengine: interception aborted document: %w", err)
		}
	}

	resp, err := e.client.Do(req)
	if err != nil {
		return "", nil, 0, err
	}
	defer resp.Body.Close()
	// Size the buffer from Content-Length so the document is read
	// without regrowth copies.
	var data bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		data.Grow(int(min(n, maxDocument)) + bytes.MinRead)
	}
	if _, err := data.ReadFrom(io.LimitReader(resp.Body, maxDocument)); err != nil {
		return "", resp.Header, resp.StatusCode, err
	}
	return data.String(), resp.Header, resp.StatusCode, nil
}

// maxDocument caps how much of a document the engine reads.
const maxDocument = 8 << 20

// Navigate loads a page: document, sub-resources, injections.
func (e *Engine) Navigate(pageURL string) (*PageResult, error) {
	res := &PageResult{URL: pageURL}

	doc, hdr, status, err := e.fetchDocument(pageURL)
	res.Requests++
	if err != nil {
		res.Failed++
		return res, fmt.Errorf("webengine: document %s: %w", pageURL, err)
	}
	res.Status = status
	res.BytesReceived += int64(len(doc))
	if v := hdr.Get("X-Sim-Load-Time-Ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			res.LoadTimeMs = ms
		}
	}

	// Sub-resources with browser-like bounded parallelism.
	urls := ExtractResourceURLs(doc)
	sem := make(chan struct{}, e.cfg.MaxConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, ru := range urls {
		ru := ru
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, n, _, err := e.Fetch(ru)
			mu.Lock()
			res.Requests++
			if err != nil {
				res.Failed++
			} else {
				res.BytesReceived += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	// Injected scripts: fetch the script, then execute its beacon logic.
	e.mu.Lock()
	injections := append([]Injection(nil), e.injections...)
	e.mu.Unlock()
	res.InjectedOK = true
	for _, inj := range injections {
		if inj.ScriptURL != "" {
			_, n, _, err := e.Fetch(inj.ScriptURL)
			res.Requests++
			if err != nil {
				res.Failed++
				res.InjectedOK = false
				continue
			}
			res.BytesReceived += n
		}
		if inj.Execute != nil {
			if err := inj.Execute(e, pageURL); err != nil {
				res.InjectedOK = false
			}
		}
	}
	return res, nil
}

// ExtractResourceURLs pulls absolute sub-resource URLs out of a document:
// script/src, link/href, img/src and fetch("...") calls. The URLs are
// copies, so keeping one does not keep the document alive.
func ExtractResourceURLs(doc string) []string {
	var out []string
	seen := map[string]bool{}
	add := func(u string) {
		if u == "" || seen[u] {
			return
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return
		}
		u = strings.Clone(u) // a substring would pin the whole document
		seen[u] = true
		out = append(out, u)
	}
	for _, attr := range []string{`src="`, `href="`, `fetch("`} {
		rest := doc
		for {
			i := strings.Index(rest, attr)
			if i < 0 {
				break
			}
			rest = rest[i+len(attr):]
			j := strings.IndexByte(rest, '"')
			if j < 0 {
				break
			}
			add(rest[:j])
			rest = rest[j:]
		}
	}
	return out
}

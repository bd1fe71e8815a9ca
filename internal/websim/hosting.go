package websim

import (
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"panoptes/internal/netsim"
	"panoptes/internal/pki"
)

// Hosting runs HTTPS servers for a site set plus every third-party embed
// host, all with certificates from the public web CA.
type Hosting struct {
	mu      sync.Mutex
	servers []*http.Server
	hits    map[string]int // host -> request count
}

// Host brings the generated web online. Every site domain and every
// EmbedHosts entry gets an HTTPS listener on the virtual internet in its
// country (embeds are hosted in the US).
func Host(inet *netsim.Internet, ca *pki.CA, sites []*Site) (*Hosting, error) {
	h := &Hosting{hits: make(map[string]int)}
	for _, s := range sites {
		site := s
		if err := h.serve(inet, ca, site.Domain, site.Country, siteHandler(h, site)); err != nil {
			return nil, err
		}
	}
	for _, embed := range EmbedHosts() {
		if err := h.serve(inet, ca, embed, "US", embedHandler(h, embed)); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *Hosting) serve(inet *netsim.Internet, ca *pki.CA, domain, country string, handler http.Handler) error {
	l, _, err := inet.ListenDomain(domain, country, 443)
	if err != nil {
		return fmt.Errorf("websim: host %s: %w", domain, err)
	}
	cert, err := ca.Issue(domain, "*."+domain)
	if err != nil {
		return fmt.Errorf("websim: certificate for %s: %w", domain, err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(tls.NewListener(l, &tls.Config{Certificates: []tls.Certificate{cert}}))
	h.mu.Lock()
	h.servers = append(h.servers, srv)
	h.mu.Unlock()
	return nil
}

func (h *Hosting) count(host string) {
	h.mu.Lock()
	h.hits[host]++
	h.mu.Unlock()
}

// Hits returns the number of requests a host has served.
func (h *Hosting) Hits(host string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hits[host]
}

// Close shuts every server down.
func (h *Hosting) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.servers {
		s.Close()
	}
	h.servers = nil
}

// siteHandler serves a site's landing page and its first-party resources.
func siteHandler(h *Hosting, s *Site) http.Handler {
	doc := s.HTML()
	byPath := make(map[string]*Resource, len(s.Resources))
	for i := range s.Resources {
		r := &s.Resources[i]
		if !r.ThirdParty {
			if idx := strings.Index(r.URL, s.Domain); idx >= 0 {
				byPath[r.URL[idx+len(s.Domain):]] = r
			}
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.count(s.Domain)
		if req.URL.Path == "/" || req.URL.Path == "" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			// The engine reads the modelled DOMContentLoaded latency from
			// this header and reports it up to the orchestrator, which
			// advances the virtual clock by it.
			w.Header().Set("X-Sim-Load-Time-Ms", fmt.Sprint(s.LoadTimeMs))
			io.WriteString(w, doc)
			return
		}
		key := req.URL.Path
		if req.URL.RawQuery != "" {
			key += "?" + req.URL.RawQuery
		}
		if r, ok := byPath[key]; ok {
			w.Header().Set("Content-Type", contentTypeFor(r.Kind))
			w.Write(filler(r.Size))
			return
		}
		if strings.HasPrefix(req.URL.Path, "/favicon") {
			w.Header().Set("Content-Type", "image/png")
			w.Write(filler(512))
			return
		}
		http.NotFound(w, req)
	})
}

// embedHandler serves any path on a third-party host with deterministic
// filler sized by the path hash.
func embedHandler(h *Hosting, host string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.count(host)
		size := 200 + len(req.URL.RequestURI())*37%4096
		ct := "application/javascript"
		switch {
		case strings.Contains(req.URL.Path, "collect"), strings.Contains(req.URL.Path, "pixel"):
			ct, size = "image/gif", 43
		case strings.HasSuffix(req.URL.Path, ".css"):
			ct = "text/css"
		case strings.HasSuffix(req.URL.Path, ".woff2"):
			ct = "font/woff2"
		}
		w.Header().Set("Content-Type", ct)
		w.Write(filler(size))
	})
}

func contentTypeFor(k ResourceKind) string {
	switch k {
	case KindScript:
		return "application/javascript"
	case KindStyle:
		return "text/css"
	case KindImage:
		return "image/png"
	case KindFont:
		return "font/woff2"
	default:
		return "application/json"
	}
}

// fillerBlock is the shared body of every served resource: "panoptes"
// repeated, long enough for the largest resource (64 KiB).
var fillerBlock = []byte(strings.Repeat("panoptes", 8<<10))

// filler returns n deterministic bytes. Bodies up to len(fillerBlock)
// are read-only views of the shared block, so serving a resource
// allocates nothing; handlers still write each body in one Write, which
// keeps the upstream wire framing unchanged.
func filler(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n <= len(fillerBlock) {
		return fillerBlock[:n:n]
	}
	return []byte(strings.Repeat("panoptes", n/8+1)[:n])
}

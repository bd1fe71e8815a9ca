// Package taint implements the paper's core mechanism (§2.3): every HTTP
// request the web engine issues is tainted with an additional custom
// 'x-'-prefixed header (injected through CDP Fetch interception, or a
// Frida hook for browsers without CDP); the MITM proxy's splitting addon
// then classifies each intercepted request — tainted means the website
// generated it, untainted means the browser app generated it natively —
// strips the marker, and, once the exchange has finished, files the flow
// into the engine or native database.
package taint

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync/atomic"

	"panoptes/internal/capture"
	"panoptes/internal/cdp"
)

// HeaderName is the taint marker header. The 'x-' prefix keeps it clear
// of standard headers so it cannot interfere with site behaviour.
const HeaderName = "X-Panoptes-Taint"

// NewToken returns a fresh campaign taint token. Using a random value
// (rather than a constant) means a website echoing or predicting the
// header cannot forge engine classification.
func NewToken() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		panic("taint: entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// Inject adds the taint header to an outgoing request's header map.
func Inject(h http.Header, token string) {
	h.Set(HeaderName, token)
}

// InjectCDP returns the header list for a cdp Fetch.continueRequest that
// re-sends the original headers plus the taint marker — exactly what the
// Panoptes host sends for every Fetch.requestPaused event.
func InjectCDP(orig map[string]string, token string) []cdp.HeaderEntry {
	out := make([]cdp.HeaderEntry, 0, len(orig)+1)
	out = append(out, cdp.HeaderEntry{Name: HeaderName, Value: token})
	for k, v := range orig {
		if http.CanonicalHeaderKey(k) == HeaderName {
			continue
		}
		out = append(out, cdp.HeaderEntry{Name: k, Value: v})
	}
	return out
}

// SplitterAddon is the custom MITM addon: it inspects every intercepted
// request, classifies it by the taint header, strips the header before
// the request is forwarded to its original destination, annotates the
// flow with the active visit, and, once the exchange has finished,
// stores it in the matching database.
type SplitterAddon struct {
	Token  string
	DB     *capture.DB
	Visits *capture.VisitContext

	mismatched atomic.Int64 // tainted header present but wrong token
}

// NewSplitter builds the addon.
func NewSplitter(token string, db *capture.DB, visits *capture.VisitContext) *SplitterAddon {
	return &SplitterAddon{Token: token, DB: db, Visits: visits}
}

// Request implements mitm.Addon. It fixes everything the flow's commit
// depends on at request time — origin, visit and attempt — and files
// nothing.
func (a *SplitterAddon) Request(f *capture.Flow, req *http.Request) {
	val := req.Header.Get(HeaderName)
	switch {
	case val == a.Token:
		f.Origin = capture.OriginEngine
	case val != "":
		// A forged or stale taint: treat as native but count it.
		a.mismatched.Add(1)
		f.Origin = capture.OriginNative
	default:
		f.Origin = capture.OriginNative
	}
	// Strip the marker so the destination never sees instrumentation.
	req.Header.Del(HeaderName)
	if f.Headers != nil {
		f.Headers.Del(HeaderName)
	}

	if a.Visits != nil {
		v := a.Visits.Lookup(f.BrowserUID)
		f.Browser = v.Browser
		f.VisitURL = v.URL
		f.Incognito = v.Incognito
		f.Attempt = v.Attempt
	}
}

// Response implements mitm.Addon: the flow is final, so it is filed.
func (a *SplitterAddon) Response(f *capture.Flow, resp *http.Response) {
	a.DB.StoreFor(f.Origin).Add(f)
}

// Mismatched reports how many requests carried a non-campaign taint
// value.
func (a *SplitterAddon) Mismatched() int { return int(a.mismatched.Load()) }

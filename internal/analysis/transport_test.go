package analysis_test

import (
	"net/http"
	"testing"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
	"panoptes/internal/pipeline"
)

// transportSuite builds a one-browser streaming suite wired onto a
// fresh pipeline, the minimal harness for feeding synthetic flows.
func transportSuite(browser string) (*analysis.Suite, *pipeline.Pipeline) {
	s := analysis.NewSuite(hostlist.New(), []string{browser})
	p := pipeline.New()
	s.Register(p)
	return s, p
}

func packedQuery(t *testing.T, name string) []byte {
	t.Helper()
	b, err := dnsmsg.NewQuery(1, name, dnsmsg.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDoHOnlyPIILeak pins the acceptance scenario: a PII value present
// ONLY inside a DoH query body (smuggled as the qname's first label)
// must surface in the streaming Table 2 matrix. Nothing else about the
// flow — path, query string, headers — carries the value.
func TestDoHOnlyPIILeak(t *testing.T) {
	s, p := transportSuite("SynthBrowser")
	p.Observe(&capture.Flow{
		ID: 1, Browser: "SynthBrowser", Origin: capture.OriginNative,
		Method: "POST", Scheme: "https", Host: "t.vendor.example", Path: "/dns-query",
		Transport: capture.TransportDoH, ALPN: "h2",
		Headers: http.Header{"Content-Type": []string{"application/dns-message"}},
		Body:    packedQuery(t, "cc-gr.t.vendor.example"),
	})
	if !s.PII.Matrix().Leaked("SynthBrowser", pii.AttrCountry) {
		t.Fatal("Country carried only in a DoH query body was not detected")
	}

	// Control: the same flow with an innocuous qname leaks nothing.
	s2, p2 := transportSuite("SynthBrowser")
	p2.Observe(&capture.Flow{
		ID: 1, Browser: "SynthBrowser", Origin: capture.OriginNative,
		Method: "POST", Scheme: "https", Host: "t.vendor.example", Path: "/dns-query",
		Transport: capture.TransportDoH,
		Headers:   http.Header{"Content-Type": []string{"application/dns-message"}},
		Body:      packedQuery(t, "updates.vendor.example"),
	})
	if s2.PII.Matrix().Leaked("SynthBrowser", pii.AttrCountry) {
		t.Fatal("innocuous DoH qname flagged as a Country leak")
	}
}

// TestWSOnlyHistoryLeak pins the second acceptance scenario: a visited
// URL carried ONLY inside a WebSocket telemetry frame's payload must be
// found by the streaming history-leak scanner as a full-URL leak.
func TestWSOnlyHistoryLeak(t *testing.T) {
	const visit = "https://secret-site.example/account/settings"
	s, p := transportSuite("SynthBrowser")
	p.Observe(&capture.Flow{
		ID: 1, Browser: "SynthBrowser", Origin: capture.OriginNative,
		Method: "WS", Scheme: "wss", Host: "push.vendor.example", Path: "/push/v1/telemetry",
		Transport: capture.TransportWS, ALPN: "http/1.1",
		VisitURL: visit,
		Body:     []byte(`{"event":"page_visit","seq":1,"url":"` + visit + `"}`),
	})
	findings := s.LeakNative.Findings()
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1 (%+v)", len(findings), findings)
	}
	f := findings[0]
	if f.Kind != leak.KindFullURL {
		t.Errorf("kind = %v, want %v", f.Kind, leak.KindFullURL)
	}
	if f.Host != "push.vendor.example" {
		t.Errorf("host = %q, want push.vendor.example", f.Host)
	}

	// Control: a frame that does not echo the visit leaks nothing.
	s2, p2 := transportSuite("SynthBrowser")
	p2.Observe(&capture.Flow{
		ID: 1, Browser: "SynthBrowser", Origin: capture.OriginNative,
		Method: "WS", Scheme: "wss", Host: "push.vendor.example", Path: "/push/v1/telemetry",
		Transport: capture.TransportWS,
		VisitURL:  visit,
		Body:      []byte(`{"event":"heartbeat","seq":2}`),
	})
	if got := s2.LeakNative.Findings(); len(got) != 0 {
		t.Fatalf("heartbeat frame produced findings: %+v", got)
	}
}

// TestDoHResolverQueriesAreNotHistoryLeaks pins the carve-out: a DoH
// query to a public resolver necessarily names the visited host — that
// is name resolution, reported by the DNS-usage split, not
// exfiltration. The same message POSTed anywhere else still counts.
func TestDoHResolverQueriesAreNotHistoryLeaks(t *testing.T) {
	const visit = "https://secret-site.example/account"
	mkFlow := func(host string) *capture.Flow {
		return &capture.Flow{
			ID: 1, Browser: "SynthBrowser", Origin: capture.OriginNative,
			Method: "POST", Scheme: "https", Host: host, Path: "/dns-query",
			Transport: capture.TransportDoH,
			Headers:   http.Header{"Content-Type": []string{"application/dns-message"}},
			VisitURL:  visit,
			Body:      packedQuery(t, "secret-site.example"),
		}
	}
	s, p := transportSuite("SynthBrowser")
	p.Observe(mkFlow("dns.google"))
	if got := s.LeakNative.Findings(); len(got) != 0 {
		t.Fatalf("resolver DoH query flagged as history leak: %+v", got)
	}
	s2, p2 := transportSuite("SynthBrowser")
	p2.Observe(mkFlow("t.vendor.example"))
	got := s2.LeakNative.Findings()
	if len(got) != 1 || got[0].Kind != leak.KindDomainOnly {
		t.Fatalf("vendor-bound DoH query with visited hostname not flagged: %+v", got)
	}
}

// TestTransportCoverageFromStudy checks the per-browser transport rows
// against the fleet's profiled behaviours after a full crawl: every
// browser speaks h1; the h2-capable vendors produce frame-level flows;
// Dolphin's telemetry rides WebSocket frames; DoH browsers produce
// RFC 8484 flows; and a replay of the stores agrees with the streaming
// rows.
func TestTransportCoverageFromStudy(t *testing.T) {
	w, names := study(t)
	rows := w.Suite.Transport.Rows()
	byName := map[string]analysis.TransportRow{}
	for _, r := range rows {
		byName[r.Browser] = r
	}
	for _, n := range names {
		r := byName[n]
		if r.H1 == 0 {
			t.Errorf("%s: no h1 flows captured", n)
		}
		if r.Total != r.H1+r.H2+r.WS+r.DoH {
			t.Errorf("%s: total %d != sum of transports", n, r.Total)
		}
	}
	for _, n := range []string{"Chrome", "Edge", "Brave"} {
		if byName[n].H2 == 0 {
			t.Errorf("%s profiles an h2 vendor host but captured no h2 flows", n)
		}
	}
	if byName["Dolphin"].WS == 0 {
		t.Error("Dolphin captured no WebSocket telemetry flows")
	}
	if byName["Dolphin"].H2 != 0 {
		t.Errorf("Dolphin unexpectedly spoke h2 (%d flows)", byName["Dolphin"].H2)
	}
	if byName["Chrome"].DoH == 0 || byName["Whale"].DoH == 0 {
		t.Error("DoH browsers captured no doh-transport flows")
	}

	re := analysis.NewSuite(w.Hostlist, names)
	re.Replay(w.DB)
	replayed := re.Transport.Rows()
	if len(replayed) != len(rows) {
		t.Fatalf("replayed rows = %d, streaming rows = %d", len(replayed), len(rows))
	}
	for i := range rows {
		if replayed[i] != rows[i] {
			t.Errorf("row %d: replayed %+v != streaming %+v", i, replayed[i], rows[i])
		}
	}
}

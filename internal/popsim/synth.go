package popsim

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
	"panoptes/internal/profiles"
)

// synthJob is one page visit to synthesize traffic for. Jobs are
// created on the loop thread in deterministic order; synthesis itself
// is a pure function of the job and the model, so it can fan out to
// any number of workers without changing the committed stream.
type synthJob struct {
	user, sess, visit uint32
	pIdx, siteIdx     int
	when              time.Time
	// sampled marks the deterministic 1-in-SampleEvery visits whose
	// flows carry VisitURL and the full PII query. Head-based sampling
	// is what keeps the per-flow-entry analyzers (leak scan findings,
	// Table-2 flow entries) bounded while the figure analyzers still see
	// every flow.
	sampled bool
}

// reqOverhead approximates request-line + header bytes of a native
// exchange (the emulator path measures real wire bytes; the population
// plane models them).
const reqOverhead = 180

// nativeRespBytes is the modelled response size of a phone-home beacon.
const nativeRespBytes = 64

// synthesize renders one visit's traffic — the engine fetches and the
// profile's native phone-home behaviours — as capture flows in their
// canonical order. Flows come from the capture pool and carry no ID;
// the engine's committer assigns IDs in job order.
func (m *Model) synthesize(j synthJob, out []*capture.Flow) []*capture.Flow {
	ps := m.profiles[j.pIdx]
	site := &m.sites[j.siteIdx]
	visitURL := ""
	if j.sampled {
		visitURL = site.url
	}

	// --- Engine plane: the document plus its sub-resources. ---
	f := m.newFlow(ps, j, capture.OriginEngine, visitURL)
	f.Method = http.MethodGet
	f.Host = site.domain
	f.Path = "/"
	f.Transport = capture.TransportH1
	f.ReqBytes = reqOverhead + len(site.domain)
	f.RespBytes = site.docSize
	out = append(out, f)
	for i := range site.res {
		r := &site.res[i]
		if ps.p.EngineAdBlock && r.adRelated {
			continue // the engine's filter list blocks ad embeds
		}
		f := m.newFlow(ps, j, capture.OriginEngine, visitURL)
		f.Method = http.MethodGet
		f.Host = r.host
		f.Path = r.path
		f.Transport = capture.TransportH1
		f.ReqBytes = reqOverhead + len(r.host) + len(r.path)
		f.RespBytes = r.size
		out = append(out, f)
	}

	// --- Native plane: the profile's per-visit phone-home traffic,
	// in the order the emulator issues it. ---
	uuid := m.UUID(j.pIdx, j.user)
	for i := range ps.p.OnVisit {
		t := &ps.p.OnVisit[i]
		method := t.Method
		if method == "" {
			method = http.MethodGet
		}
		f := m.newFlow(ps, j, capture.OriginNative, visitURL)
		f.Method = method
		f.Host = t.Host
		f.Path = t.Path
		f.RawQuery = expand(t.Query, site.url, site.domain, uuid)
		body := expand(t.Body, site.url, site.domain, uuid)
		f.Body = append(f.Body[:0], body...)
		m.stampNativeTransport(ps, f)
		f.ReqBytes = reqOverhead + len(t.Host) + len(t.Path) + len(f.RawQuery) + len(body)
		f.RespBytes = nativeRespBytes
		out = append(out, f)
	}
	// PII beacon (Table 2). Only sampled visits carry the attribute
	// query: the matrix needs evidence, not volume, and the per-flow
	// finding entries it keeps must stay bounded.
	if ps.piiQuery != "" {
		f := m.newFlow(ps, j, capture.OriginNative, visitURL)
		f.Method = http.MethodGet
		f.Host = ps.p.PIICarrier
		f.Path = "/device/profile"
		if j.sampled {
			f.RawQuery = ps.piiQuery
		}
		m.stampNativeTransport(ps, f)
		f.ReqBytes = reqOverhead + len(f.Host) + len(f.Path) + len(f.RawQuery)
		f.RespBytes = nativeRespBytes
		out = append(out, f)
	}
	// Telemetry noise. The emulator round-robins over the noise hosts
	// with an in-process counter; the population plane hashes the pick
	// instead, so the choice is independent of event interleaving.
	seq := uint64(j.sess)<<8 | uint64(j.visit)
	for i := 0; i < ps.p.VisitNoise && len(ps.p.NoiseHosts) > 0; i++ {
		host := ps.p.NoiseHosts[int(m.r.raw(streamNoise, uint64(j.user), seq, uint64(i))%uint64(len(ps.p.NoiseHosts)))]
		f := m.newFlow(ps, j, capture.OriginNative, visitURL)
		f.Host = host
		f.Path = "/beacon"
		if ps.p.NoiseBytes > 0 {
			f.Method = http.MethodPost
			body := fmt.Sprintf(`{"event":"telemetry","seq":%d,"pad":"%s"}`, seq, ps.noisePad)
			f.Body = append(f.Body[:0], body...)
		} else {
			f.Method = http.MethodGet
		}
		m.stampNativeTransport(ps, f)
		f.ReqBytes = reqOverhead + len(host) + len(f.Body)
		f.RespBytes = nativeRespBytes
		out = append(out, f)
	}
	// WebSocket push telemetry: the visited URL rides inside the frame.
	if ps.p.WSTelemetryHost != "" {
		f := m.newFlow(ps, j, capture.OriginNative, visitURL)
		f.Method = "WS"
		f.Scheme = "wss"
		f.Host = ps.p.WSTelemetryHost
		f.Path = "/push/v1/telemetry"
		f.Transport = capture.TransportWS
		frame := fmt.Sprintf(`{"event":"page_visit","seq":%d,"url":%q,"uuid":%q}`, seq, site.url, uuid)
		f.Body = append(f.Body[:0], frame...)
		f.ReqBytes = len(frame) + 6 // frame header + masked payload
		f.RespBytes = 0
		out = append(out, f)
	}
	// DoH resolution: browsers on a third-party resolver emit one query
	// for the visited site, plus the PII qname if the profile leaks one.
	// The PII qname rides only on sampled visits: its "cc-gr" label is a
	// Table-2 country finding on every flow that carries it, and the
	// matrix analyzer logs one entry per finding-carrying flow.
	if ps.dohHost != "" {
		out = append(out, m.dohFlow(ps, j, site.domain, visitURL))
		if ps.dohQname != "" && j.sampled {
			out = append(out, m.dohFlow(ps, j, ps.dohQname, visitURL))
		}
	}
	return out
}

// newFlow acquires a pooled flow and stamps the fields every
// population flow shares. Attempt stays 0: population visits commit
// outside any attempt window, so the capture gate commits them at Add.
func (m *Model) newFlow(ps *profileSynth, j synthJob, o capture.Origin, visitURL string) *capture.Flow {
	f := capture.AcquireFlow()
	f.Time = j.when
	f.Browser = ps.p.Name
	f.BrowserUID = ps.uid
	f.Scheme = "https"
	f.Origin = o
	f.Status = http.StatusOK
	f.VisitURL = visitURL
	return f
}

// stampNativeTransport marks HTTP/2 on the profile's h2 vendor hosts
// (everything else stays HTTP/1.1, as in the emulator's native stack).
func (m *Model) stampNativeTransport(ps *profileSynth, f *capture.Flow) {
	if ps.h2[f.Host] {
		f.Transport = capture.TransportH2
		f.ALPN = "h2"
	} else {
		f.Transport = capture.TransportH1
	}
}

// dohFlow renders one RFC 8484 POST to the profile's resolver with the
// packed DNS query as its body.
func (m *Model) dohFlow(ps *profileSynth, j synthJob, qname, visitURL string) *capture.Flow {
	f := m.newFlow(ps, j, capture.OriginNative, visitURL)
	f.Method = http.MethodPost
	f.Host = ps.dohHost
	f.Path = "/dns-query"
	f.Transport = capture.TransportDoH
	id := uint16(m.r.raw(streamDNSID, uint64(j.user), uint64(j.sess), uint64(j.visit)))
	if raw, err := dnsmsg.NewQuery(id, qname, dnsmsg.TypeA).Pack(); err == nil {
		f.Body = append(f.Body[:0], raw...)
	}
	f.ReqBytes = reqOverhead + len(f.Body)
	f.RespBytes = nativeRespBytes
	return f
}

// expand fills a native template's placeholders (the emulator's
// browser.expand, minus the per-instance UUID source).
func expand(t, visitURL, host, uuid string) string {
	if t == "" {
		return ""
	}
	r := strings.NewReplacer(
		"{URL}", visitURL,
		"{URL_B64}", base64.StdEncoding.EncodeToString([]byte(visitURL)),
		"{URL_ESC}", url.QueryEscape(visitURL),
		"{HOST}", host,
		"{UUID}", uuid,
	)
	return r.Replace(t)
}

// profileFleet converts a profile list to its name list in fleet order.
func profileFleet(ps []*profiles.Profile) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

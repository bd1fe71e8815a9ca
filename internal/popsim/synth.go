package popsim

import (
	"fmt"
	"net/http"
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

// flowCount is the number of flows synthesize renders for j, at least
// one: a pure function of the job, so the event loop can reserve the
// visit's flow IDs before any worker synthesizes it.
func (m *Model) flowCount(j synthJob) int {
	ps := m.profiles[j.pIdx]
	site := &m.sites[j.siteIdx]
	n := 1 + len(site.res) + ps.nativeFlows
	if ps.p.EngineAdBlock {
		n -= site.adRes
	}
	if j.sampled && ps.dohHost != "" && ps.dohQname != "" {
		n++
	}
	return n
}

// freeList is one committing worker's spare flow records: records it
// reclaimed from visits it committed, for its next visit. A record
// another holder still references is never on it (Flow.Reclaim returns
// nil for it), and it holds at most one visit's records.
type freeList []*capture.Flow

// acquire takes a spare record, or one from the capture pool when there
// is none. Either way it holds one reference, owned by the caller.
func (l *freeList) acquire() *capture.Flow {
	n := len(*l)
	if n == 0 {
		return capture.AcquireFlow()
	}
	f := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return f
}

// synthesize renders one visit's traffic — the engine fetches and the
// profile's native phone-home behaviours — as capture flows in their
// canonical order, appended to out. Flows come from free, then the
// capture pool, and carry no ID; the engine stamps the IDs it reserved
// for the job.
func (m *Model) synthesize(j synthJob, out []*capture.Flow, free *freeList) []*capture.Flow {
	ps := m.profiles[j.pIdx]
	site := &m.sites[j.siteIdx]
	visitURL := ""
	if j.sampled {
		visitURL = site.url
	}

	// --- Engine plane: the document plus its sub-resources. ---
	f := m.newFlow(free, ps, j, capture.OriginEngine, visitURL)
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
		f := m.newFlow(free, ps, j, capture.OriginEngine, visitURL)
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
	vals := placeholderValues{site.url, site.urlB64, site.urlEsc, site.domain, uuid}
	var scratch [512]byte // queries render here; the string copy is their one allocation
	for i := range ps.p.OnVisit {
		t := &ps.p.OnVisit[i]
		method := t.Method
		if method == "" {
			method = http.MethodGet
		}
		f := m.newFlow(free, ps, j, capture.OriginNative, visitURL)
		f.Method = method
		f.Host = t.Host
		f.Path = t.Path
		f.RawQuery = string(ps.onVisit[i].query.appendTo(scratch[:0], &vals))
		f.Body = ps.onVisit[i].body.appendTo(f.Body[:0], &vals)
		m.stampNativeTransport(ps, f)
		f.ReqBytes = reqOverhead + len(t.Host) + len(t.Path) + len(f.RawQuery) + len(f.Body)
		f.RespBytes = nativeRespBytes
		out = append(out, f)
	}
	// PII beacon (Table 2). Only sampled visits carry the attribute
	// query: the matrix needs evidence, not volume, and the per-flow
	// finding entries it keeps must stay bounded.
	if ps.piiQuery != "" {
		f := m.newFlow(free, ps, j, capture.OriginNative, visitURL)
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
		f := m.newFlow(free, ps, j, capture.OriginNative, visitURL)
		f.Host = host
		f.Path = "/beacon"
		if ps.p.NoiseBytes > 0 {
			f.Method = http.MethodPost
			f.Body = fmt.Appendf(f.Body[:0], `{"event":"telemetry","seq":%d,"pad":"%s"}`, seq, ps.noisePad)
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
		f := m.newFlow(free, ps, j, capture.OriginNative, visitURL)
		f.Method = "WS"
		f.Scheme = "wss"
		f.Host = ps.p.WSTelemetryHost
		f.Path = "/push/v1/telemetry"
		f.Transport = capture.TransportWS
		f.Body = fmt.Appendf(f.Body[:0], `{"event":"page_visit","seq":%d,"url":%q,"uuid":%q}`, seq, site.url, uuid)
		f.ReqBytes = len(f.Body) + 6 // frame header + masked payload
		f.RespBytes = 0
		out = append(out, f)
	}
	// DoH resolution: browsers on a third-party resolver emit one query
	// for the visited site, plus the PII qname if the profile leaks one.
	// The PII qname rides only on sampled visits: its "cc-gr" label is a
	// Table-2 country finding on every flow that carries it, and the
	// matrix analyzer logs one entry per finding-carrying flow.
	if ps.dohHost != "" {
		out = append(out, m.dohFlow(free, ps, j, site.domain, visitURL))
		if ps.dohQname != "" && j.sampled {
			out = append(out, m.dohFlow(free, ps, j, ps.dohQname, visitURL))
		}
	}
	return out
}

// newFlow takes a spare or pooled flow and stamps the fields every
// population flow shares. Attempt stays 0: population visits commit
// outside any attempt window, which DB.CommitAll requires.
func (m *Model) newFlow(free *freeList, ps *profileSynth, j synthJob, o capture.Origin, visitURL string) *capture.Flow {
	f := free.acquire()
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
func (m *Model) dohFlow(free *freeList, ps *profileSynth, j synthJob, qname, visitURL string) *capture.Flow {
	f := m.newFlow(free, ps, j, capture.OriginNative, visitURL)
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

// placeholders are the native template placeholders (the emulator's
// browser.expand, minus the per-instance UUID source), in the order
// placeholderValues holds their values.
var placeholders = [...]string{"{URL}", "{URL_B64}", "{URL_ESC}", "{HOST}", "{UUID}"}

// placeholderValues is one visit's value for each placeholder.
type placeholderValues [len(placeholders)]string

// segment is one piece of a compiled template: the literal lit when
// ph < 0, else the value of placeholder ph.
type segment struct {
	lit string
	ph  int
}

// template is a native template compiled once per profile into
// literal and placeholder segments. Rendering it gives what a
// strings.Replacer over the placeholders gives: no placeholder is a
// prefix of another, so at most one matches at any position, and
// values are never rescanned.
type template []segment

// compileTemplate splits t at its placeholders.
func compileTemplate(t string) template {
	var out template
	lit := 0
	for i := 0; i < len(t); {
		ph := -1
		for k, p := range placeholders {
			if strings.HasPrefix(t[i:], p) {
				ph = k
				break
			}
		}
		if ph < 0 {
			i++
			continue
		}
		if lit < i {
			out = append(out, segment{lit: t[lit:i], ph: -1})
		}
		out = append(out, segment{ph: ph})
		i += len(placeholders[ph])
		lit = i
	}
	if lit < len(t) {
		out = append(out, segment{lit: t[lit:], ph: -1})
	}
	return out
}

// appendTo appends the rendered template to b.
func (t template) appendTo(b []byte, vals *placeholderValues) []byte {
	for _, s := range t {
		if s.ph < 0 {
			b = append(b, s.lit...)
		} else {
			b = append(b, vals[s.ph]...)
		}
	}
	return b
}

// profileFleet converts a profile list to its name list in fleet order.
func profileFleet(ps []*profiles.Profile) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

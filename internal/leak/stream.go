package leak

import (
	"sync"

	"panoptes/internal/capture"
)

// StreamScanner is the history-leak scan: each committed flow is
// searched as it arrives and the finding (at most one per flow) folded
// into the running set. The search itself is a
// single pass of the detector's shared Aho-Corasick engine over the
// flow haystack — every active visit's representations are interned
// into one automaton, so per-flow cost no longer grows with the number
// of concurrent visits. Implements pipeline.Analyzer (plus Reset).
type StreamScanner struct {
	det    *Detector
	origin capture.Origin // the only origin scanned

	mu       sync.Mutex
	findings []Finding // arrival order
}

// NewStreamScanner builds a scanner over d's encoding set that scans
// the committed flows of one origin and ignores the rest.
func NewStreamScanner(d *Detector, origin capture.Origin) *StreamScanner {
	return &StreamScanner{det: d, origin: origin}
}

// Observe scans one committed flow of the scanner's origin.
func (s *StreamScanner) Observe(f *capture.Flow) {
	if f.Origin != s.origin {
		return
	}
	fnd, ok := s.scanOne(f)
	if !ok {
		return
	}
	s.mu.Lock()
	s.findings = append(s.findings, fnd)
	s.mu.Unlock()
}

// scanOne runs the per-flow leak search (interning, automaton compile
// and the scan itself all happen outside the state lock). The haystack
// is built in a pooled buffer and searched in one automaton pass; the
// matched pattern IDs then resolve against the visit's needles in
// priority order, reproducing the original search exactly: full URL
// before domain-only, cheapest encoding first.
func (s *StreamScanner) scanOne(f *capture.Flow) (Finding, bool) {
	if f.VisitURL == "" {
		return Finding{}, false
	}
	v := s.det.visitFor(f.VisitURL)
	if !v.ok {
		return Finding{}, false
	}
	if f.Host == v.host {
		return Finding{}, false // talking to the visited site is not exfiltration
	}
	// A DoH query to a public resolver necessarily carries the visited
	// hostname — that is name resolution doing its job, reported by the
	// DNS-usage analysis (the paper's 8/7 DoH split), not a history leak.
	// DoH bodies sent anywhere else still count.
	if IsDoHFlow(f) && dohResolvers[f.Host] {
		return Finding{}, false
	}

	// DoH flows get the decoded qnames appended, bounded by the body size.
	buf := haystackPool.Get(len(f.Path) + 2*len(f.RawQuery) + 2*len(f.Body) + 5)
	defer haystackPool.Put(buf)
	writeHaystack(buf, f)
	ms := s.det.pats.Scan(buf.Bytes())
	defer ms.Release()

	if enc, ok := v.full.match(ms); ok {
		return Finding{
			Browser: f.Browser, Host: f.Host, Kind: KindFullURL,
			Encoding: enc, VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
		}, true
	}
	// Domain-only: the visited hostname appears but the full URL does
	// not (dom is nil for single-label hosts).
	if v.dom != nil {
		if enc, ok := v.dom.match(ms); ok {
			return Finding{
				Browser: f.Browser, Host: f.Host, Kind: KindDomainOnly,
				Encoding: enc, VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
			}, true
		}
	}
	return Finding{}, false
}

// Reset drops all findings. The detector's interned
// needles and compiled automaton survive: they are a pure function of
// the values searched so far and stay valid across campaigns.
func (s *StreamScanner) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.findings = nil
}

// Findings returns the findings in canonical sort order.
func (s *StreamScanner) Findings() []Finding {
	s.mu.Lock()
	out := append([]Finding(nil), s.findings...)
	s.mu.Unlock()
	sortFindings(out)
	return out
}

// Finalize implements pipeline.Analyzer.
func (s *StreamScanner) Finalize() any { return s.Findings() }

package leak

import (
	"sync"

	"panoptes/internal/capture"
)

// StreamScanner is the history-leak scan: each committed flow is
// searched as it arrives and the finding (at most one per flow) folded
// into the running set. The search itself is one pass of the flow's
// own visit's Aho-Corasick automaton over the flow haystack, so
// per-flow cost does not grow with the number of visits seen.
// Implements pipeline.BatchAnalyzer (plus Reset).
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

// Observe scans one committed flow: a batch of one.
func (s *StreamScanner) Observe(f *capture.Flow) { s.ObserveAll([]*capture.Flow{f}) }

// ObserveAll scans a committed batch's flows of the scanner's origin,
// with no lock held, then appends their findings under one lock.
func (s *StreamScanner) ObserveAll(fs []*capture.Flow) {
	var buf [8]Finding // most batches leak less
	found := buf[:0]
	for _, f := range fs {
		if f.Origin != s.origin {
			continue
		}
		if fnd, ok := s.scanOne(f); ok {
			found = append(found, fnd)
		}
	}
	if len(found) == 0 {
		return
	}
	s.mu.Lock()
	s.findings = append(s.findings, found...)
	s.mu.Unlock()
}

// scanOne is the scanner's per-flow search.
func (s *StreamScanner) scanOne(f *capture.Flow) (Finding, bool) { return s.det.ScanFlow(f) }

// ScanFlow runs the history-leak search on one flow, whatever its
// origin. The visit's automaton is compiled on its first flow; the
// haystack is built in a pooled buffer and scanned in one pass into a
// stack hit array, with no lock held. The hits then resolve against the
// visit's needles in priority order, reproducing the original search
// exactly: full URL before domain-only, cheapest encoding first.
func (d *Detector) ScanFlow(f *capture.Flow) (Finding, bool) {
	if f.VisitURL == "" {
		return Finding{}, false
	}
	v := d.visitFor(f.VisitURL)
	if v.ac == nil {
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
	var hit [maxPatterns]bool
	v.ac.Scan(buf.Bytes(), hit[:])

	if enc, ok := v.full.match(hit[:]); ok {
		return Finding{
			Browser: f.Browser, Host: f.Host, Kind: KindFullURL,
			Encoding: enc, VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
		}, true
	}
	// Domain-only: the visited hostname appears but the full URL does
	// not (dom is empty for single-label hosts).
	if enc, ok := v.dom.match(hit[:]); ok {
		return Finding{
			Browser: f.Browser, Host: f.Host, Kind: KindDomainOnly,
			Encoding: enc, VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
		}, true
	}
	return Finding{}, false
}

// Reset drops all findings. The detector's compiled visits survive:
// each is a pure function of its VisitURL and stays valid across
// campaigns.
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

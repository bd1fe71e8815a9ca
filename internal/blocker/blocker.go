// Package blocker is the countermeasure prototype the paper's related
// work motivates (§4): because browsers track users from *native* code,
// in-browser ad blockers cannot help — but the device's network
// interface is a universal vantage point (NoMoAds, ReCon). The blocker
// installs as a MITM-proxy addon behind the taint splitter and vetoes
// native requests that (a) target known ad/analytics/tracker hosts,
// (b) carry PII or device identifiers, or (c) exfiltrate the visited
// URL or hostname — while never touching engine traffic, so the pages
// the user asked for keep working.
//
// The evaluation (BenchmarkCountermeasure, examples/countermeasure)
// measures the block rate on native tracking and the false-positive
// rate on engine traffic.
package blocker

import (
	"fmt"
	"maps"
	"net/http"
	"sync"

	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
)

// Policy selects which native behaviours to block.
type Policy struct {
	// BlockAdHosts vetoes native requests to ad/analytics/tracker hosts.
	BlockAdHosts bool
	// BlockPII vetoes native requests whose parameters or body carry
	// device identifiers (Table 2 attributes).
	BlockPII bool
	// BlockHistoryLeaks vetoes native requests that contain the URL or
	// hostname of the page currently open, under any supported encoding.
	BlockHistoryLeaks bool
	// AllowFirstParty exempts requests to the browser vendor's own
	// update/configuration endpoints listed here (suffix-matched), so
	// blocking does not break core functionality.
	AllowFirstParty []string
}

// DefaultPolicy blocks everything blockable with no exemptions.
func DefaultPolicy() Policy {
	return Policy{BlockAdHosts: true, BlockPII: true, BlockHistoryLeaks: true}
}

// Reason classifies why a request was blocked.
type Reason string

// Block reasons.
const (
	ReasonAdHost      Reason = "ad-host"
	ReasonPII         Reason = "pii"
	ReasonHistoryLeak Reason = "history-leak"
)

// Blocker implements mitm.Addon and mitm.Vetoer.
type Blocker struct {
	policy Policy
	list   *hostlist.List
	leaks  *leak.Detector // compiles each visit once across flows

	mu         sync.Mutex
	blocked    map[Reason]int
	examined   int
	enginePass int
}

// New builds a blocker over a hosts list (nil uses the bundled list).
func New(policy Policy, list *hostlist.List) *Blocker {
	if list == nil {
		list = hostlist.Bundled()
	}
	return &Blocker{policy: policy, list: list, leaks: leak.NewDetector(), blocked: map[Reason]int{}}
}

// Request implements mitm.Addon (classification happens in Veto).
func (b *Blocker) Request(f *capture.Flow, req *http.Request) {}

// Response implements mitm.Addon.
func (b *Blocker) Response(f *capture.Flow, resp *http.Response) {}

// Veto implements mitm.Vetoer. It must run after the taint splitter so
// the flow's Origin and VisitURL are populated.
func (b *Blocker) Veto(f *capture.Flow, req *http.Request) error {
	// Never interfere with traffic the website (and therefore the user's
	// navigation) caused: the countermeasure targets the browser app.
	if f.Origin == capture.OriginEngine {
		b.mu.Lock()
		b.enginePass++
		b.mu.Unlock()
		return nil
	}
	b.mu.Lock()
	b.examined++
	b.mu.Unlock()

	for _, allow := range b.policy.AllowFirstParty {
		if f.Host == allow || hostlist.RegistrableDomain(f.Host) == allow {
			return nil
		}
	}

	if b.policy.BlockAdHosts && b.list.AdRelated(f.Host) {
		return b.block(ReasonAdHost, f.Host)
	}

	if b.policy.BlockHistoryLeaks {
		if fnd, hit := b.leaks.ScanFlow(f); hit {
			return b.block(ReasonHistoryLeak, fmt.Sprintf("%s (%s)", fnd.Kind, fnd.Encoding))
		}
	}

	if b.policy.BlockPII {
		if findings := pii.ScanFlow(f); len(findings) > 0 {
			return b.block(ReasonPII, string(findings[0].Attribute))
		}
	}
	return nil
}

func (b *Blocker) block(reason Reason, detail string) error {
	b.mu.Lock()
	b.blocked[reason]++
	b.mu.Unlock()
	return fmt.Errorf("%s: %s", reason, detail)
}

// Stats summarises the blocker's work.
type Stats struct {
	NativeExamined int
	NativeBlocked  int
	EnginePassed   int
	ByReason       map[Reason]int
}

// Stats returns a snapshot.
func (b *Blocker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Stats{
		NativeExamined: b.examined,
		EnginePassed:   b.enginePass,
		ByReason:       maps.Clone(b.blocked),
	}
	for _, n := range b.blocked {
		s.NativeBlocked += n
	}
	return s
}

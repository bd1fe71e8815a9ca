package analysis

import (
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"

	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
	"panoptes/internal/pipeline"
)

// This file holds the incremental (streaming) forms of the package's
// batch analyses. Each analyzer is a plain fold over committed flows:
// the capture DB hands the commit tap an attempt's flows only once the
// attempt seals and drops a faulted attempt's flows before any tap sees
// them, so no analyzer keeps undo state. Each finalizes to output
// byte-identical to the corresponding batch function — which is now a
// thin wrapper that replays a store through the same analyzer (one
// code path, two drive modes). Analyzers read only request-side fields
// and canonicalize their output at Finalize (sorted rows, per-browser
// maps), so results do not depend on how concurrent browsers' commit
// streams interleave or on when in a visit the seal delivers them.

// Fig2Analyzer counts engine/native requests per browser (Figure 2).
type Fig2Analyzer struct {
	browsers []string

	mu     sync.Mutex
	engine map[string]int
	native map[string]int
}

// NewFig2Analyzer builds an analyzer producing rows for browsers.
func NewFig2Analyzer(browsers []string) *Fig2Analyzer {
	return &Fig2Analyzer{browsers: browsers, engine: map[string]int{}, native: map[string]int{}}
}

// Observe tallies one committed flow by its stamped origin.
func (a *Fig2Analyzer) Observe(f *capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.native
	if f.Origin == capture.OriginEngine {
		m = a.engine
	}
	m[f.Browser]++
}

// Reset drops all counts.
func (a *Fig2Analyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.engine = map[string]int{}
	a.native = map[string]int{}
}

// Rows assembles the Figure 2 rows in browser-list order.
func (a *Fig2Analyzer) Rows() []Fig2Row {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]Fig2Row, 0, len(a.browsers))
	for _, b := range a.browsers {
		r := Fig2Row{Browser: b, Engine: a.engine[b], Native: a.native[b]}
		if r.Engine > 0 {
			r.Ratio = float64(r.Native) / float64(r.Engine)
		}
		rows = append(rows, r)
	}
	return rows
}

// Finalize implements pipeline.Analyzer.
func (a *Fig2Analyzer) Finalize() any { return a.Rows() }

// Fig3Analyzer tracks distinct native-contacted domains per browser
// and their ad/analytics share (Figure 3).
type Fig3Analyzer struct {
	browsers []string
	list     *hostlist.List

	mu    sync.Mutex
	hosts map[string]map[string]bool // browser -> contacted hosts
}

// NewFig3Analyzer builds an analyzer classifying hosts against list.
func NewFig3Analyzer(list *hostlist.List, browsers []string) *Fig3Analyzer {
	return &Fig3Analyzer{browsers: browsers, list: list, hosts: map[string]map[string]bool{}}
}

// Observe tallies one committed native flow's destination host.
func (a *Fig3Analyzer) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative {
		return
	}
	a.observe(f)
}

func (a *Fig3Analyzer) observe(f *capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := f.Browser
	if a.hosts[b] == nil {
		a.hosts[b] = map[string]bool{}
	}
	a.hosts[b][f.Host] = true
}

// Reset drops all state.
func (a *Fig3Analyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hosts = map[string]map[string]bool{}
}

// Rows assembles the Figure 3 rows in browser-list order.
func (a *Fig3Analyzer) Rows() []Fig3Row {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]Fig3Row, 0, len(a.browsers))
	for _, b := range a.browsers {
		domains := a.hosts[b]
		row := Fig3Row{Browser: b, DistinctDomains: len(domains)}
		for d := range domains {
			if a.list.AdRelated(d) {
				row.AdDomains++
				row.AdDomainList = append(row.AdDomainList, d)
			}
		}
		sort.Strings(row.AdDomainList)
		if row.DistinctDomains > 0 {
			row.AdPct = 100 * float64(row.AdDomains) / float64(row.DistinctDomains)
		}
		rows = append(rows, row)
	}
	return rows
}

// Finalize implements pipeline.Analyzer.
func (a *Fig3Analyzer) Finalize() any { return a.Rows() }

// Fig4Analyzer sums outgoing request bytes per browser and origin
// (Figure 4). It doubles as the proxy-side source for the
// kernel-vs-proxy volume cross-check.
type Fig4Analyzer struct {
	browsers []string

	mu     sync.Mutex
	engine map[string]int64
	native map[string]int64
}

// NewFig4Analyzer builds an analyzer producing rows for browsers.
func NewFig4Analyzer(browsers []string) *Fig4Analyzer {
	return &Fig4Analyzer{browsers: browsers, engine: map[string]int64{}, native: map[string]int64{}}
}

// Observe sums one committed flow's request bytes by stamped origin.
func (a *Fig4Analyzer) Observe(f *capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.native
	if f.Origin == capture.OriginEngine {
		m = a.engine
	}
	m[f.Browser] += int64(f.ReqBytes)
}

// Reset drops all sums.
func (a *Fig4Analyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.engine = map[string]int64{}
	a.native = map[string]int64{}
}

// Rows assembles the Figure 4 rows in browser-list order.
func (a *Fig4Analyzer) Rows() []Fig4Row {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]Fig4Row, 0, len(a.browsers))
	for _, b := range a.browsers {
		r := Fig4Row{Browser: b, EngineBytes: a.engine[b], NativeBytes: a.native[b]}
		if r.EngineBytes > 0 {
			r.OverheadPct = 100 * float64(r.NativeBytes) / float64(r.EngineBytes)
		}
		rows = append(rows, r)
	}
	return rows
}

// ReqBytesTotal returns a browser's engine+native request bytes — the
// proxy side of CrossCheckVolumes.
func (a *Fig4Analyzer) ReqBytesTotal(browser string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.engine[browser] + a.native[browser]
}

// Finalize implements pipeline.Analyzer.
func (a *Fig4Analyzer) Finalize() any { return a.Rows() }

// dnsPick is a browser's best resolver evidence so far.
type dnsPick struct {
	mode string
	id   int64 // flow ID of the evidence; highest wins ("last" in flow order)
}

// DNSAnalyzer classifies each browser's resolver path from its native
// flows ("doh-cloudflare", "doh-google" or "local"). The batch
// DNSUsage let the last matching flow win; flow IDs increase along a
// browser's sequential commit stream, so highest-ID evidence is the
// same rule expressed order-insensitively.
type DNSAnalyzer struct {
	browsers []string

	mu   sync.Mutex
	best map[string]dnsPick
}

// NewDNSAnalyzer builds an analyzer reporting on browsers.
func NewDNSAnalyzer(browsers []string) *DNSAnalyzer {
	return &DNSAnalyzer{browsers: browsers, best: map[string]dnsPick{}}
}

// Observe inspects one committed native flow for resolver evidence.
func (a *DNSAnalyzer) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative {
		return
	}
	a.observe(f)
}

func (a *DNSAnalyzer) observe(f *capture.Flow) {
	var mode string
	switch f.Host {
	case "cloudflare-dns.com":
		mode = "doh-cloudflare"
	case "dns.google":
		mode = "doh-google"
	default:
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, had := a.best[f.Browser]; had && f.ID <= prev.id {
		return
	}
	a.best[f.Browser] = dnsPick{mode: mode, id: f.ID}
}

// Reset drops all evidence.
func (a *DNSAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.best = map[string]dnsPick{}
}

// Usage returns the per-browser resolver classification.
func (a *DNSAnalyzer) Usage() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.browsers))
	for _, b := range a.browsers {
		if p, ok := a.best[b]; ok {
			out[b] = p.mode
		} else {
			out[b] = "local"
		}
	}
	return out
}

// Finalize implements pipeline.Analyzer.
func (a *DNSAnalyzer) Finalize() any { return a.Usage() }

// TrackableAnalyzer mines native flows for persistent identifiers and
// counts their sightings incrementally (the §3.2 track-across-sessions
// signal). Per flow it first records newly seen identifier values
// (values travel in the flow that introduces them), then counts the
// flow as a sighting of any known identifier of the same browser and
// host that appears in its query or body — so a stable identifier's
// sighting count equals the batch pass over the same flow order.
type TrackableAnalyzer struct {
	mu        sync.Mutex
	values    map[string]map[string][]string // browser -> host?param -> first-seen values
	sightings map[string]map[string]int      // browser -> host?param -> carrying flows
}

// NewTrackableAnalyzer builds an empty miner.
func NewTrackableAnalyzer() *TrackableAnalyzer {
	return &TrackableAnalyzer{
		values:    map[string]map[string][]string{},
		sightings: map[string]map[string]int{},
	}
}

// Observe mines one committed native flow.
func (a *TrackableAnalyzer) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative {
		return
	}
	a.observe(f)
}

func (a *TrackableAnalyzer) observe(f *capture.Flow) {
	hits := leak.ExtractIDs(f) // parsing happens outside the state lock
	hay := f.RawQuery + string(f.Body)
	if dec, err := url.QueryUnescape(f.RawQuery); err == nil {
		hay += dec
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := f.Browser
	for _, hit := range hits {
		key := f.Host + "?" + hit.Key
		if a.values[b] == nil {
			a.values[b] = map[string][]string{}
		}
		if vals := a.values[b][key]; !slices.Contains(vals, hit.Value) {
			a.values[b][key] = append(vals, hit.Value)
		}
	}
	for key, vals := range a.values[b] {
		host := key[:strings.IndexByte(key, '?')]
		if host != f.Host {
			continue
		}
		for _, v := range vals {
			if strings.Contains(hay, v) {
				if a.sightings[b] == nil {
					a.sightings[b] = map[string]int{}
				}
				a.sightings[b][key]++
				break
			}
		}
	}
}

// Reset drops all mined identifiers.
func (a *TrackableAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.values = map[string]map[string][]string{}
	a.sightings = map[string]map[string]int{}
}

// IDs reports the mined identifiers, most-persistent first (fewest
// distinct values over most sightings).
func (a *TrackableAnalyzer) IDs() []TrackableID {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []TrackableID
	for browser, byKey := range a.values {
		for key, vals := range byKey {
			i := strings.IndexByte(key, '?')
			out = append(out, TrackableID{
				Browser: browser, Host: key[:i], Param: key[i+1:],
				Values:    append([]string(nil), vals...),
				Sightings: a.sightings[browser][key],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		// Stable (1 value) and frequently seen first.
		if len(out[i].Values) != len(out[j].Values) {
			return len(out[i].Values) < len(out[j].Values)
		}
		if out[i].Sightings != out[j].Sightings {
			return out[i].Sightings > out[j].Sightings
		}
		if out[i].Browser+out[i].Host != out[j].Browser+out[j].Host {
			return out[i].Browser+out[i].Host < out[j].Browser+out[j].Host
		}
		return out[i].Param < out[j].Param
	})
	return out
}

// Finalize implements pipeline.Analyzer.
func (a *TrackableAnalyzer) Finalize() any { return a.IDs() }

// Listing1Analyzer captures the paper's Listing 1 exemplar: the first
// Opera OLeads ad request (lowest flow ID — Opera's commit stream is
// sequential, so that is the first in flow order).
type Listing1Analyzer struct {
	mu    sync.Mutex
	found bool
	id    int64
	body  string
	query string
}

// NewListing1Analyzer builds an empty exemplar capturer.
func NewListing1Analyzer() *Listing1Analyzer { return &Listing1Analyzer{} }

// Observe checks one committed native flow against the exemplar shape.
func (a *Listing1Analyzer) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative {
		return
	}
	a.observe(f)
}

func (a *Listing1Analyzer) observe(f *capture.Flow) {
	if f.Browser != "Opera" || f.Host != "s-odx.oleads.com" || f.Method != "POST" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.found && f.ID >= a.id {
		return
	}
	a.found, a.id, a.body, a.query = true, f.ID, string(f.Body), f.RawQuery
}

// Reset drops the capture.
func (a *Listing1Analyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.found, a.id, a.body, a.query = false, 0, "", ""
}

// Result returns the exemplar body and query ("" when absent).
func (a *Listing1Analyzer) Result() (body, query string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.body, a.query
}

// Finalize implements pipeline.Analyzer.
func (a *Listing1Analyzer) Finalize() any {
	body, query := a.Result()
	return [2]string{body, query}
}

// TransportAnalyzer counts committed flows per browser and transport
// (h1, h2, ws, doh) — the per-transport coverage matrix that shows which
// parts of a browser's traffic the capture plane would have missed with
// a single-transport dissector.
type TransportAnalyzer struct {
	browsers []string

	mu     sync.Mutex
	counts map[string]map[string]int // browser -> transport -> flows
}

// NewTransportAnalyzer builds an analyzer producing rows for browsers.
func NewTransportAnalyzer(browsers []string) *TransportAnalyzer {
	return &TransportAnalyzer{browsers: browsers, counts: map[string]map[string]int{}}
}

// Observe tallies one committed flow by its transport tag.
func (a *TransportAnalyzer) Observe(f *capture.Flow) {
	t := f.TransportOrDefault()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := f.Browser
	if a.counts[b] == nil {
		a.counts[b] = map[string]int{}
	}
	a.counts[b][t]++
}

// Reset drops all counts.
func (a *TransportAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts = map[string]map[string]int{}
}

// Rows assembles the coverage rows in browser-list order.
func (a *TransportAnalyzer) Rows() []TransportRow {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]TransportRow, 0, len(a.browsers))
	for _, b := range a.browsers {
		c := a.counts[b]
		r := TransportRow{
			Browser: b,
			H1:      c[capture.TransportH1],
			H2:      c[capture.TransportH2],
			WS:      c[capture.TransportWS],
			DoH:     c[capture.TransportDoH],
		}
		r.Total = r.H1 + r.H2 + r.WS + r.DoH
		rows = append(rows, r)
	}
	return rows
}

// Finalize implements pipeline.Analyzer.
func (a *TransportAnalyzer) Finalize() any { return a.Rows() }

// Suite bundles the full set of streaming analyzers a campaign world
// registers on its commit tap: every figure, table and leak analysis
// the batch layer offers, computed incrementally in a single pass.
type Suite struct {
	names []string

	Fig2       *Fig2Analyzer
	Fig3       *Fig3Analyzer
	Fig4       *Fig4Analyzer
	PII        *pii.MatrixAnalyzer
	LeakNative *leak.StreamScanner
	LeakEngine *leak.StreamScanner
	DNS        *DNSAnalyzer
	Trackable  *TrackableAnalyzer
	Listing1   *Listing1Analyzer
	Transport  *TransportAnalyzer
}

// NewSuite builds the analyzers for the given browser fleet and
// ad-classification host list. Both leak scanners share one detector, so
// each visit URL and hostname is interned and compiled into its
// automaton once.
func NewSuite(list *hostlist.List, browsers []string) *Suite {
	det := leak.NewDetector()
	return &Suite{
		names:      append([]string(nil), browsers...),
		Fig2:       NewFig2Analyzer(browsers),
		Fig3:       NewFig3Analyzer(list, browsers),
		Fig4:       NewFig4Analyzer(browsers),
		PII:        pii.NewMatrixAnalyzer(browsers),
		LeakNative: leak.NewStreamScanner(det, capture.OriginNative),
		LeakEngine: leak.NewStreamScanner(det, capture.OriginEngine),
		DNS:        NewDNSAnalyzer(browsers),
		Trackable:  NewTrackableAnalyzer(),
		Listing1:   NewListing1Analyzer(),
		Transport:  NewTransportAnalyzer(browsers),
	}
}

// Names returns the browser list the suite reports on, in fleet order.
func (s *Suite) Names() []string { return append([]string(nil), s.names...) }

// Register wires every analyzer onto the pipeline in a fixed order.
func (s *Suite) Register(p *pipeline.Pipeline) {
	p.Register("fig2", s.Fig2)
	p.Register("fig3", s.Fig3)
	p.Register("fig4", s.Fig4)
	p.Register("table2", s.PII)
	p.Register("leaks-native", s.LeakNative)
	p.Register("leaks-engine", s.LeakEngine)
	p.Register("dns", s.DNS)
	p.Register("trackable", s.Trackable)
	p.Register("listing1", s.Listing1)
	p.Register("transport", s.Transport)
}

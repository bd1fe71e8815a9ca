package analysis

import (
	"slices"
	"sort"
	"sync"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
	"panoptes/internal/pipeline"
)

// This file holds the package's analyzers. Each is a plain fold over
// committed flows: the capture DB hands the commit tap an attempt's
// flows only once the attempt seals and drops a faulted attempt's flows
// before any tap sees them, so no analyzer keeps undo state. Analyzers
// read only request-side fields and canonicalize their output at
// Finalize (sorted rows, per-browser maps), so results do not depend on
// how concurrent browsers' commit streams interleave, on when in a
// visit the seal delivers them, or on whether the flows arrive live or
// from a Suite.Replay of stored databases.
//
// Each analyzer has one fold, ObserveAll (pipeline.BatchAnalyzer), and
// Observe is a batch of one. A batch takes the analyzer's lock once;
// per-flow parsing (PII and leak scans, identifier extraction) and
// Figure 5's bins and registrable domains resolve before it. A committed batch is usually one browser's visit, so the
// folds resolve per-browser state once per run of same-browser flows
// (browserRun) and update it with plain adds.

// browserRun returns the length of the leading run of fs whose flows
// share fs[0]'s browser; fs must not be empty.
func browserRun(fs []*capture.Flow) int {
	b := fs[0].Browser
	n := 1
	for n < len(fs) && fs[n].Browser == b {
		n++
	}
	return n
}

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

// Observe tallies one committed flow: a batch of one.
func (a *Fig2Analyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll tallies a committed batch by stamped origin, counting each
// run of same-browser flows locally before adding it to the browser's
// totals.
func (a *Fig2Analyzer) ObserveAll(fs []*capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(fs) > 0 {
		n := browserRun(fs)
		engine := 0
		for _, f := range fs[:n] {
			if f.Origin == capture.OriginEngine {
				engine++
			}
		}
		b := fs[0].Browser
		a.engine[b] += engine
		a.native[b] += n - engine
		fs = fs[n:]
	}
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

// Observe tallies one committed flow: a batch of one.
func (a *Fig3Analyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll tallies the destination hosts of a committed batch's
// native flows. Each run of same-browser flows looks its host set up
// once and skips a host repeated from the run's previous native flow.
func (a *Fig3Analyzer) ObserveAll(fs []*capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(fs) > 0 {
		n := browserRun(fs)
		var hosts map[string]bool // nil until the run's first native flow
		last := ""
		for _, f := range fs[:n] {
			if f.Origin != capture.OriginNative || (hosts != nil && f.Host == last) {
				continue
			}
			if hosts == nil {
				if hosts = a.hosts[f.Browser]; hosts == nil {
					hosts = map[string]bool{}
					a.hosts[f.Browser] = hosts
				}
			}
			hosts[f.Host] = true
			last = f.Host
		}
		fs = fs[n:]
	}
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

// Observe sums one committed flow: a batch of one.
func (a *Fig4Analyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll sums a committed batch's request bytes by stamped origin,
// summing each run of same-browser flows locally before adding it to
// the browser's totals.
func (a *Fig4Analyzer) ObserveAll(fs []*capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(fs) > 0 {
		n := browserRun(fs)
		var engine, native int64
		for _, f := range fs[:n] {
			if f.Origin == capture.OriginEngine {
				engine += int64(f.ReqBytes)
			} else {
				native += int64(f.ReqBytes)
			}
		}
		b := fs[0].Browser
		a.engine[b] += engine
		a.native[b] += native
		fs = fs[n:]
	}
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
// proxy side of CrossCheckFrom.
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
// flows ("doh-cloudflare", "doh-google" or "local"). The last matching
// flow wins; flow IDs increase along a browser's sequential commit
// stream, so highest-ID evidence is that rule expressed
// order-insensitively.
type DNSAnalyzer struct {
	browsers []string

	mu   sync.Mutex
	best map[string]dnsPick
}

// NewDNSAnalyzer builds an analyzer reporting on browsers.
func NewDNSAnalyzer(browsers []string) *DNSAnalyzer {
	return &DNSAnalyzer{browsers: browsers, best: map[string]dnsPick{}}
}

// Observe inspects one committed flow: a batch of one.
func (a *DNSAnalyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll inspects a committed batch's native flows for resolver
// evidence.
func (a *DNSAnalyzer) ObserveAll(fs []*capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range fs {
		if f.Origin != capture.OriginNative {
			continue
		}
		var mode string
		switch f.Host {
		case "cloudflare-dns.com":
			mode = "doh-cloudflare"
		case "dns.google":
			mode = "doh-google"
		default:
			continue
		}
		if prev, had := a.best[f.Browser]; had && f.ID <= prev.id {
			continue
		}
		a.best[f.Browser] = dnsPick{mode: mode, id: f.ID}
	}
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

// TrackableAnalyzer mines native flows for persistent identifiers (the
// §3.2 track-across-sessions signal). An identifier is a (browser, host,
// param) whose leak.ExtractIDs hits carry ID-shaped values; a sighting
// is a native flow whose hits name the param, counted once per flow
// however often the flow names it. Values union and sightings add, so
// the fold does not depend on flow order. State is indexed by browser,
// then host.
type TrackableAnalyzer struct {
	mu  sync.Mutex
	ids map[string]map[string]map[string]*trackedID // browser -> host -> param -> identifier
}

// trackedID is one mined identifier: its distinct values in first-seen
// order and the number of flows whose hits named it.
type trackedID struct {
	values    []string
	sightings int
}

// trackScan is one native flow's identifier hits, extracted before the
// state lock is taken.
type trackScan struct {
	f    *capture.Flow
	hits []leak.IDHit
}

// NewTrackableAnalyzer builds an empty miner.
func NewTrackableAnalyzer() *TrackableAnalyzer {
	return &TrackableAnalyzer{ids: map[string]map[string]map[string]*trackedID{}}
}

// Observe mines one committed flow: a batch of one.
func (a *TrackableAnalyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll mines a committed batch's native flows. Extraction runs
// before the lock, and a batch with no hits takes no lock; each run of
// same-browser flows then looks its host index up once.
func (a *TrackableAnalyzer) ObserveAll(fs []*capture.Flow) {
	var buf [32]trackScan // a visit's native flows usually fit
	scans := buf[:0]
	for _, f := range fs {
		if f.Origin != capture.OriginNative {
			continue
		}
		if hits := leak.ExtractIDs(f); len(hits) > 0 {
			scans = append(scans, trackScan{f: f, hits: hits})
		}
	}
	if len(scans) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var byHost map[string]map[string]*trackedID
	for i, sc := range scans {
		f := sc.f
		if i == 0 || f.Browser != scans[i-1].f.Browser {
			if byHost = a.ids[f.Browser]; byHost == nil {
				byHost = map[string]map[string]*trackedID{}
				a.ids[f.Browser] = byHost
			}
		}
		params := byHost[f.Host]
		if params == nil {
			params = map[string]*trackedID{}
			byHost[f.Host] = params
		}
		for j, hit := range sc.hits {
			id := params[hit.Key]
			if id == nil {
				id = &trackedID{}
				params[hit.Key] = id
			}
			if !slices.ContainsFunc(sc.hits[:j], func(h leak.IDHit) bool { return h.Key == hit.Key }) {
				id.sightings++
			}
			if !slices.Contains(id.values, hit.Value) {
				id.values = append(id.values, hit.Value)
			}
		}
	}
}

// Reset drops all mined identifiers.
func (a *TrackableAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ids = map[string]map[string]map[string]*trackedID{}
}

// IDs reports the mined identifiers, most-persistent first (fewest
// distinct values over most sightings), each with its values sorted
// and its sightings the number of native flows that named it: the
// order values were first seen in depends on flow order, the report
// does not.
func (a *TrackableAnalyzer) IDs() []TrackableID {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []TrackableID
	for browser, byHost := range a.ids {
		for host, params := range byHost {
			for param, id := range params {
				sorted := slices.Clone(id.values)
				slices.Sort(sorted)
				out = append(out, TrackableID{
					Browser: browser, Host: host, Param: param,
					Values:    sorted,
					Sightings: id.sightings,
				})
			}
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
		if out[i].Browser != out[j].Browser {
			return out[i].Browser < out[j].Browser
		}
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
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

// Observe checks one committed flow: a batch of one.
func (a *Listing1Analyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll checks a committed batch's native flows against the
// exemplar shape; the lock is taken only when the batch has a match.
func (a *Listing1Analyzer) ObserveAll(fs []*capture.Flow) {
	var first *capture.Flow // the batch's lowest-ID match
	for _, f := range fs {
		if f.Origin != capture.OriginNative {
			continue
		}
		if f.Browser != "Opera" || f.Host != "s-odx.oleads.com" || f.Method != "POST" {
			continue
		}
		if first == nil || f.ID < first.ID {
			first = f
		}
	}
	if first == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.found && first.ID >= a.id {
		return
	}
	a.found, a.id, a.body, a.query = true, first.ID, string(first.Body), first.RawQuery
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
	counts map[string]*transportCounts
}

// transportCounts is one browser's flows per transport tag.
type transportCounts struct {
	known [4]int         // h1 (and untagged), h2, ws, doh
	other map[string]int // any other tag
}

// transportSlot is a transport tag's index in transportCounts.known, or
// -1 for a tag outside the four.
func transportSlot(tag string) int {
	switch tag {
	case "", capture.TransportH1:
		return 0
	case capture.TransportH2:
		return 1
	case capture.TransportWS:
		return 2
	case capture.TransportDoH:
		return 3
	}
	return -1
}

// NewTransportAnalyzer builds an analyzer producing rows for browsers.
func NewTransportAnalyzer(browsers []string) *TransportAnalyzer {
	return &TransportAnalyzer{browsers: browsers, counts: map[string]*transportCounts{}}
}

// Observe tallies one committed flow: a batch of one.
func (a *TransportAnalyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll tallies a committed batch by transport tag, looking each
// run of same-browser flows' counts up once.
func (a *TransportAnalyzer) ObserveAll(fs []*capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(fs) > 0 {
		n := browserRun(fs)
		c := a.counts[fs[0].Browser]
		if c == nil {
			c = &transportCounts{}
			a.counts[fs[0].Browser] = c
		}
		for _, f := range fs[:n] {
			if i := transportSlot(f.Transport); i >= 0 {
				c.known[i]++
				continue
			}
			if c.other == nil {
				c.other = map[string]int{}
			}
			c.other[f.Transport]++
		}
		fs = fs[n:]
	}
}

// Reset drops all counts.
func (a *TransportAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts = map[string]*transportCounts{}
}

// Rows assembles the coverage rows in browser-list order.
func (a *TransportAnalyzer) Rows() []TransportRow {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]TransportRow, 0, len(a.browsers))
	for _, b := range a.browsers {
		r := TransportRow{Browser: b}
		if c := a.counts[b]; c != nil {
			r.H1, r.H2, r.WS, r.DoH = c.known[0], c.known[1], c.known[2], c.known[3]
		}
		r.Total = r.H1 + r.H2 + r.WS + r.DoH
		rows = append(rows, r)
	}
	return rows
}

// Finalize implements pipeline.Analyzer.
func (a *TransportAnalyzer) Finalize() any { return a.Rows() }

// Fig5Analyzer bins native requests by virtual time per browser into
// the Figure 5 phone-home timeline. The idle experiment registers one
// for its window and the population engine one for its whole run. Its
// state is bounded by browsers × bins + distinct destination domains —
// independent of the flow count, which is what lets a million-user
// population keep it on the commit tap under -retain=none.
type Fig5Analyzer struct {
	browsers []string
	start    time.Time
	binSecs  int
	nBins    int

	mu    sync.Mutex
	bins  map[string][]int          // browser -> per-bin native request count
	dests map[string]map[string]int // browser -> registrable domain -> count
	total map[string]int
}

// NewFig5Analyzer builds a timeline over the window [start,
// start+duration) in binSeconds bins (0 means 10 s). Flows before start
// are skipped; flows after the window count in its last bin.
func NewFig5Analyzer(browsers []string, start time.Time, duration time.Duration, binSeconds int) *Fig5Analyzer {
	if binSeconds <= 0 {
		binSeconds = 10
	}
	n := int(duration.Seconds()) / binSeconds
	if n <= 0 {
		n = 1
	}
	return &Fig5Analyzer{
		browsers: append([]string(nil), browsers...),
		start:    start, binSecs: binSeconds, nBins: n,
		bins:  map[string][]int{},
		dests: map[string]map[string]int{},
		total: map[string]int{},
	}
}

// Observe folds one committed flow: a batch of one.
func (c *Fig5Analyzer) Observe(f *capture.Flow) { c.ObserveAll([]*capture.Flow{f}) }

// fig5Run is one same-browser run of a batch's counted native flows,
// resolved before the lock: its flows' bin offsets and its same-host
// runs end at offsEnd and destsEnd in the batch's summary.
type fig5Run struct {
	browser           string
	offsEnd, destsEnd int
}

// fig5Dest is a run of n same-host counted flows under its registrable
// domain.
type fig5Dest struct {
	domain string
	n      int
}

// ObserveAll folds a committed batch's native flows into their time
// bins. Each counted flow's bin offset and each same-host run's
// registrable domain resolve before the lock, into a summary that a
// visit's flows usually fit on the stack; under the lock the fold only
// adds, and a batch with no counted flow takes no lock.
func (c *Fig5Analyzer) ObserveAll(fs []*capture.Flow) {
	var (
		runBuf  [4]fig5Run
		offBuf  [64]int
		destBuf [32]fig5Dest
	)
	runs, offs, dests := runBuf[:0], offBuf[:0], destBuf[:0]
	for len(fs) > 0 {
		n := browserRun(fs)
		host, hostN, counted := "", 0, len(offs)
		for _, f := range fs[:n] {
			if f.Origin != capture.OriginNative || f.Time.Before(c.start) {
				continue
			}
			off := int(f.Time.Sub(c.start).Seconds()) / c.binSecs
			offs = append(offs, min(off, c.nBins-1))
			if hostN > 0 && f.Host != host {
				dests = append(dests, fig5Dest{hostlist.RegistrableDomain(host), hostN})
				hostN = 0
			}
			host = f.Host
			hostN++
		}
		if len(offs) > counted {
			dests = append(dests, fig5Dest{hostlist.RegistrableDomain(host), hostN})
			runs = append(runs, fig5Run{fs[0].Browser, len(offs), len(dests)})
		}
		fs = fs[n:]
	}
	if len(runs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o, d := 0, 0
	for _, r := range runs {
		bins := c.bins[r.browser]
		if bins == nil {
			bins = make([]int, c.nBins)
			c.bins[r.browser] = bins
		}
		byDomain := c.dests[r.browser]
		if byDomain == nil {
			byDomain = map[string]int{}
			c.dests[r.browser] = byDomain
		}
		for _, off := range offs[o:r.offsEnd] {
			bins[off]++
		}
		for _, dst := range dests[d:r.destsEnd] {
			byDomain[dst.domain] += dst.n
		}
		c.total[r.browser] += r.offsEnd - o
		o, d = r.offsEnd, r.destsEnd
	}
}

// Reset drops all bins.
func (c *Fig5Analyzer) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bins = map[string][]int{}
	c.dests = map[string]map[string]int{}
	c.total = map[string]int{}
}

// Series assembles the per-browser cumulative timelines in browser-list
// order.
func (c *Fig5Analyzer) Series() []Fig5Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Fig5Series, 0, len(c.browsers))
	for _, b := range c.browsers {
		s := Fig5Series{
			Browser: b, BinSeconds: c.binSecs,
			Cumulative: make([]int, c.nBins),
			DestShares: map[string]float64{},
			Total:      c.total[b],
		}
		running := 0
		for i := 0; i < c.nBins; i++ {
			if bins := c.bins[b]; bins != nil {
				running += bins[i]
			}
			s.Cumulative[i] = running
		}
		for d, n := range c.dests[b] {
			if s.Total > 0 {
				s.DestShares[d] = 100 * float64(n) / float64(s.Total)
			}
		}
		out = append(out, s)
	}
	return out
}

// Finalize implements pipeline.Analyzer.
func (c *Fig5Analyzer) Finalize() any { return c.Series() }

// Suite bundles the analyzers a campaign world registers on its commit
// tap: every crawl figure, table and leak analysis, computed
// incrementally in a single pass. Offline analysis of stored databases
// drives a fresh Suite with Replay.
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
// each visit URL compiles its automaton once.
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

// namedAnalyzer is one suite analyzer under its registration name.
type namedAnalyzer struct {
	name string
	a    pipeline.Analyzer
}

// analyzers lists the suite's analyzers in registration order.
func (s *Suite) analyzers() []namedAnalyzer {
	return []namedAnalyzer{
		{"fig2", s.Fig2},
		{"fig3", s.Fig3},
		{"fig4", s.Fig4},
		{"table2", s.PII},
		{"leaks-native", s.LeakNative},
		{"leaks-engine", s.LeakEngine},
		{"dns", s.DNS},
		{"trackable", s.Trackable},
		{"listing1", s.Listing1},
		{"transport", s.Transport},
	}
}

// Register wires every analyzer onto the pipeline in a fixed order.
func (s *Suite) Register(p *pipeline.Pipeline) {
	for _, e := range s.analyzers() {
		p.Register(e.name, e.a)
	}
}

// Replay feeds a stored database to every analyzer, the Engine store
// then the Native store, each as one batch in insertion order folded
// analyzer by analyzer (pipeline.Fold, the live pipeline's fold). It
// calls the analyzers directly rather than through a Pipeline, so an
// offline replay leaves the pipeline metrics alone. Replaying the
// stores a live campaign retained reproduces its suite byte for byte.
func (s *Suite) Replay(db *capture.DB) {
	as := s.analyzers()
	for _, st := range []*capture.Store{db.Engine, db.Native} {
		all := st.All()
		for _, e := range as {
			pipeline.Fold(e.a, all)
		}
	}
}

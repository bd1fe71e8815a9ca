// Package analysis computes the paper's results from captured traffic:
// Figure 2 (engine vs native request counts and their ratio), Figure 3
// (share of native-contacted domains that are ad/analytics-related),
// Figure 4 (outgoing byte volumes), Figure 5 (idle phone-home
// timelines), Table 2 (the PII matrix, via internal/pii), the §3.2
// history-leak findings (via internal/leak), the §3.4 international
// transfer mapping, and the DoH-vs-stub resolver split.
//
// Everything here derives from the flow databases the MITM proxy
// produced — the same vantage the paper's authors had.
package analysis

import (
	"fmt"
	"net"
	"sort"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/ebpfsim"
	"panoptes/internal/geoip"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
)

// The batch functions below are the replay drive mode of the
// incremental analyzers in stream.go: each builds a fresh analyzer,
// replays the store(s) through it in insertion order and finalizes.
// Streaming a campaign through the commit tap produces byte-identical
// results (enforced by TestFaultCampaignDeterminism's golden check).

// Fig2Row is one browser's engine/native request counts (Figure 2).
type Fig2Row struct {
	Browser string
	Engine  int
	Native  int
	Ratio   float64 // native / engine
}

// replayDB drives an analyzer with both databases' flows, engine first.
func replayDB(db *capture.DB, a interface{ Observe(*capture.Flow) }) {
	for _, f := range db.Engine.All() {
		a.Observe(f)
	}
	for _, f := range db.Native.All() {
		a.Observe(f)
	}
}

// Fig2 computes request counts per browser by replaying both databases
// through a Fig2Analyzer (each DB store stamps its origin on every flow).
func Fig2(db *capture.DB, browsers []string) []Fig2Row {
	a := NewFig2Analyzer(browsers)
	replayDB(db, a)
	return a.Rows()
}

// Fig3Row is one browser's native-destination ad share (Figure 3).
type Fig3Row struct {
	Browser         string
	DistinctDomains int
	AdDomains       int
	AdPct           float64
	AdDomainList    []string
}

// Fig3 computes, per browser, the share of distinct domains (FQDNs, as
// captured) receiving native requests that the hosts list classifies as
// ad/analytics-related, by replaying the native store through a
// Fig3Analyzer.
func Fig3(native *capture.Store, list *hostlist.List, browsers []string) []Fig3Row {
	a := NewFig3Analyzer(list, browsers)
	for _, f := range native.All() {
		a.observe(f)
	}
	return a.Rows()
}

// Fig4Row is one browser's outgoing byte volumes (Figure 4).
type Fig4Row struct {
	Browser     string
	EngineBytes int64
	NativeBytes int64
	OverheadPct float64 // native as % of engine
}

// Fig4 sums outgoing (request) bytes per browser by replaying both
// databases through a Fig4Analyzer.
func Fig4(db *capture.DB, browsers []string) []Fig4Row {
	a := NewFig4Analyzer(browsers)
	replayDB(db, a)
	return a.Rows()
}

// TransportRow is one browser's per-transport flow coverage: how much
// of its captured traffic rode each data-plane protocol, and therefore
// what an h1-only interception plane would have missed.
type TransportRow struct {
	Browser string `json:"browser"`
	H1      int    `json:"h1"`
	H2      int    `json:"h2"`
	WS      int    `json:"ws"`
	DoH     int    `json:"doh"`
	Total   int    `json:"total"`
}

// TransportCoverage counts flows per browser and transport by replaying
// both databases through a TransportAnalyzer.
func TransportCoverage(db *capture.DB, browsers []string) []TransportRow {
	a := NewTransportAnalyzer(browsers)
	replayDB(db, a)
	return a.Rows()
}

// Fig5Series is one browser's idle timeline (Figure 5).
type Fig5Series struct {
	Browser    string
	BinSeconds int
	// Cumulative[i] is the number of native requests by the end of bin i.
	Cumulative []int
	// DestShares maps registrable destination domains to their share of
	// the idle requests.
	DestShares map[string]float64
	Total      int
}

// Fig5 bins a browser's idle flows into a cumulative timeline.
func Fig5(browser string, flows []*capture.Flow, start time.Time, duration time.Duration, binSeconds int) Fig5Series {
	if binSeconds <= 0 {
		binSeconds = 10
	}
	nBins := int(duration.Seconds()) / binSeconds
	if nBins <= 0 {
		nBins = 1
	}
	counts := make([]int, nBins)
	dests := map[string]int{}
	total := 0
	for _, f := range flows {
		off := int(f.Time.Sub(start).Seconds()) / binSeconds
		if off < 0 {
			continue
		}
		if off >= nBins {
			off = nBins - 1
		}
		counts[off]++
		dests[hostlist.RegistrableDomain(f.Host)]++
		total++
	}
	cum := make([]int, nBins)
	running := 0
	for i, c := range counts {
		running += c
		cum[i] = running
	}
	shares := make(map[string]float64, len(dests))
	for d, c := range dests {
		if total > 0 {
			shares[d] = 100 * float64(c) / float64(total)
		}
	}
	return Fig5Series{Browser: browser, BinSeconds: binSeconds, Cumulative: cum, DestShares: shares, Total: total}
}

// LinearityScore measures how linear a cumulative curve is: 1.0 means
// perfectly linear growth (Opera's news feed); lower values indicate the
// burst-then-plateau shape. It compares the first-half growth share
// against the 0.5 of a straight line.
func (s Fig5Series) LinearityScore() float64 {
	n := len(s.Cumulative)
	if n == 0 || s.Cumulative[n-1] == 0 {
		return 0
	}
	half := s.Cumulative[n/2]
	frac := float64(half) / float64(s.Cumulative[n-1])
	// frac 0.5 → perfectly linear → score 1; frac 1.0 → all growth early
	// → score 0.
	score := 1 - (frac-0.5)/0.5
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return score
}

// Table2 builds the PII matrix from the native store.
func Table2(native *capture.Store, browsers []string) (pii.Matrix, []pii.Finding) {
	return pii.BuildMatrix(native, browsers)
}

// HistoryLeaks runs the §3.2 detector.
func HistoryLeaks(native *capture.Store) []leak.Finding {
	return leak.NewDetector().Scan(native)
}

// HistoryLeaksWithInjected combines native-side leaks (all browsers)
// with engine-side leaks attributable to injected page scripts (UC
// International). Engine traffic also carries the visited websites' own
// third-party tracking (analytics beacons legitimately receive the page
// URL) — §3.2's explicit non-goal — so engine findings are filtered
// differentially: a destination that also receives the same leak from a
// non-injecting browser's engine is website-caused and dropped; a
// destination unique to the injecting browser is the injection's beacon.
// Without any non-injecting browser in the dataset the baseline is empty
// and every engine finding for the injected browsers is kept.
func HistoryLeaksWithInjected(db *capture.DB, injected []string) []leak.Finding {
	if len(injected) == 0 {
		return HistoryLeaks(db.Native)
	}
	return CombineInjectedLeaks(HistoryLeaks(db.Native), HistoryLeaks(db.Engine), injected)
}

// CombineInjectedLeaks implements the differential filter over
// already-computed native and engine finding sets, so the streaming
// path (which holds both sets incrementally) shares the exact logic
// with the batch wrapper above.
func CombineInjectedLeaks(native, engine []leak.Finding, injected []string) []leak.Finding {
	out := native
	if len(injected) == 0 {
		return out
	}
	injectedSet := make(map[string]bool, len(injected))
	for _, b := range injected {
		injectedSet[b] = true
	}
	baseline := map[string]bool{}
	haveBaseline := false
	for _, f := range engine {
		if !injectedSet[f.Browser] {
			baseline[f.Host] = true
			haveBaseline = true
		}
	}
	for _, f := range engine {
		if injectedSet[f.Browser] && (!haveBaseline || !baseline[f.Host]) {
			out = append(out, f)
		}
	}
	return out
}

// GeoRow maps one leak destination to its hosting country (§3.4).
type GeoRow struct {
	Browser string
	Host    string
	IP      string
	Country string
	InEU    bool
	Kind    leak.Kind
}

// HostResolver resolves a hostname to an address; the virtual internet
// implements it.
type HostResolver interface {
	LookupHost(host string) (net.IP, error)
}

// GeoTransfers geolocates every distinct (browser, destination) pair in
// the leak findings.
func GeoTransfers(findings []leak.Finding, resolver HostResolver, geo *geoip.DB) ([]GeoRow, error) {
	seen := map[string]bool{}
	var rows []GeoRow
	for _, f := range findings {
		key := f.Browser + "|" + f.Host + "|" + string(f.Kind)
		if seen[key] {
			continue
		}
		seen[key] = true
		ip, err := resolver.LookupHost(f.Host)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolve %s: %w", f.Host, err)
		}
		country, _ := geo.Lookup(ip)
		inEU, _ := geo.InEU(ip)
		rows = append(rows, GeoRow{
			Browser: f.Browser, Host: f.Host, IP: ip.String(),
			Country: country, InEU: inEU, Kind: f.Kind,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Browser != rows[j].Browser {
			return rows[i].Browser < rows[j].Browser
		}
		return rows[i].Host < rows[j].Host
	})
	return rows, nil
}

// DNSUsage classifies each browser's resolver path from the captured
// native flows ("doh-cloudflare", "doh-google" or "local") by
// replaying the store through a DNSAnalyzer.
func DNSUsage(native *capture.Store, browsers []string) map[string]string {
	a := NewDNSAnalyzer(browsers)
	for _, f := range native.All() {
		a.observe(f)
	}
	return a.Usage()
}

// Listing1 finds a captured Opera OLeads ad request (the paper's
// Listing 1) and returns its body, or "" when absent.
func Listing1(native *capture.Store) (body string, query string) {
	a := NewListing1Analyzer()
	for _, f := range native.All() {
		a.observe(f)
	}
	return a.Result()
}

// UIDOnlySplit is the ablation for the taint mechanism: classify flows
// by UID alone, as a naive tool would. Every flow from a browser UID
// collapses into one bucket, so the engine/native distinction — the
// entire basis of Figures 2–4 — is lost. It returns per-browser totals.
func UIDOnlySplit(db *capture.DB, browsers []string) map[string]int {
	out := make(map[string]int, len(browsers))
	for _, b := range browsers {
		out[b] = len(db.Engine.ByBrowser(b)) + len(db.Native.ByBrowser(b))
	}
	return out
}

// VolumeCheck is one row of the kernel-vs-proxy byte cross-check.
type VolumeCheck struct {
	Browser       string
	UID           int
	ProxyReqBytes int64 // HTTP-level request bytes the proxy observed
	KernelTxBytes int64 // eBPF per-UID egress bytes (TLS overhead included)
	Consistent    bool
}

// CrossCheckVolumes validates Figure 4's proxy-side byte accounting
// against the device's independent eBPF per-UID counters (the Android
// netd-style egress maps). The kernel sees ciphertext — TLS records,
// handshakes, DoH — so its per-UID egress must be at least the HTTP
// request bytes the proxy reconstructed for the same app.
func CrossCheckVolumes(db *capture.DB, acct *ebpfsim.TrafficAccounting, uidOf map[string]int) []VolumeCheck {
	a := NewFig4Analyzer(nil)
	replayDB(db, a)
	return CrossCheckFrom(a.ReqBytesTotal, acct, uidOf)
}

// CrossCheckFrom is the source-agnostic form of CrossCheckVolumes:
// proxyBytes supplies a browser's proxy-observed request bytes (the
// streaming path passes the campaign suite's Fig4 analyzer).
func CrossCheckFrom(proxyBytes func(browser string) int64, acct *ebpfsim.TrafficAccounting, uidOf map[string]int) []VolumeCheck {
	var rows []VolumeCheck
	for browser, uid := range uidOf {
		pb := proxyBytes(browser)
		kernel := int64(acct.TxBytes.Get(fmt.Sprint(uid)))
		rows = append(rows, VolumeCheck{
			Browser: browser, UID: uid,
			ProxyReqBytes: pb, KernelTxBytes: kernel,
			Consistent: kernel >= pb,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Browser < rows[j].Browser })
	return rows
}

// TrackableID is a persistent identifier observed accompanying history
// reports — the mechanism that lets a vendor track a user across IP
// changes, VPNs, or Tor (§3.2, Yandex's uuid).
type TrackableID struct {
	Browser string
	Host    string
	Param   string
	// Values observed; a single stable value across many visits is the
	// tracking signal, multiple values indicate rotation.
	Values []string
	// Sightings counts the flows carrying the parameter.
	Sightings int
}

// TrackableIdentifiers mines the native store for long identifier-like
// query values sent repeatedly to the same endpoint, and reports them
// most-persistent first (fewest distinct values over most sightings),
// by replaying the store through a TrackableAnalyzer.
func TrackableIdentifiers(native *capture.Store) []TrackableID {
	a := NewTrackableAnalyzer()
	for _, f := range native.All() {
		a.observe(f)
	}
	return a.IDs()
}

// SensitiveRow is one browser × category cell of the sensitive-content
// leak breakdown (§3.2's "reporting visits to sensitive content").
type SensitiveRow struct {
	Browser  string
	Category string // websim category name
	Visits   int    // sensitive visits observed for this browser+category
	Leaked   int    // of those, visits whose full URL left the device
}

// CategoryOf maps a visited URL to its site category; the websim
// dataset supplies it.
type CategoryOf func(visitURL string) string

// SensitiveBreakdown cross-tabulates full-URL leaks per browser and
// sensitive category. A browser that does no local filtering shows
// Leaked == Visits on every row — the paper's finding for Yandex, QQ and
// UC International.
func SensitiveBreakdown(findings []leak.Finding, visits []string, browserOf map[string]bool, catOf CategoryOf) []SensitiveRow {
	type key struct{ browser, cat string }
	visitCount := map[string]int{}
	for _, v := range visits {
		visitCount[catOf(v)]++
	}
	leaked := map[key]map[string]bool{} // distinct visit URLs leaked
	for _, f := range findings {
		if f.Kind != leak.KindFullURL {
			continue
		}
		cat := catOf(f.VisitURL)
		if cat == "" {
			continue
		}
		k := key{f.Browser, cat}
		if leaked[k] == nil {
			leaked[k] = map[string]bool{}
		}
		leaked[k][f.VisitURL] = true
	}
	var rows []SensitiveRow
	for browser := range browserOf {
		for cat, n := range visitCount {
			if cat == "" {
				continue
			}
			rows = append(rows, SensitiveRow{
				Browser: browser, Category: cat,
				Visits: n, Leaked: len(leaked[key{browser, cat}]),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Browser != rows[j].Browser {
			return rows[i].Browser < rows[j].Browser
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}

// Package analysis computes the paper's results from captured traffic:
// Figure 2 (engine vs native request counts and their ratio), Figure 3
// (share of native-contacted domains that are ad/analytics-related),
// Figure 4 (outgoing byte volumes), Figure 5 (idle phone-home
// timelines), Table 2 (the PII matrix, via internal/pii), the §3.2
// history-leak findings (via internal/leak), the §3.4 international
// transfer mapping, and the DoH-vs-stub resolver split.
//
// Everything here derives from the flows the MITM proxy committed — the
// same vantage the paper's authors had. The analyses are the streaming
// analyzers of stream.go: a campaign folds them in on the commit tap,
// and an offline run over stored databases replays the stores through
// a fresh Suite.
package analysis

import (
	"fmt"
	"net"
	"sort"

	"panoptes/internal/capture"
	"panoptes/internal/ebpfsim"
	"panoptes/internal/geoip"
	"panoptes/internal/leak"
)

// Fig2Row is one browser's engine/native request counts (Figure 2).
type Fig2Row struct {
	Browser string
	Engine  int
	Native  int
	Ratio   float64 // native / engine
}

// Fig3Row is one browser's native-destination ad share (Figure 3).
type Fig3Row struct {
	Browser         string
	DistinctDomains int
	AdDomains       int
	AdPct           float64
	AdDomainList    []string
}

// Fig4Row is one browser's outgoing byte volumes (Figure 4).
type Fig4Row struct {
	Browser     string
	EngineBytes int64
	NativeBytes int64
	OverheadPct float64 // native as % of engine
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

// CombineInjectedLeaks combines native-side leaks (all browsers) with
// engine-side leaks attributable to injected page scripts (UC
// International). Engine traffic also carries the visited websites' own
// third-party tracking (analytics beacons legitimately receive the page
// URL) — §3.2's explicit non-goal — so engine findings are filtered
// differentially: a destination that also receives the same leak from a
// non-injecting browser's engine is website-caused and dropped; a
// destination unique to the injecting browser is the injection's beacon.
// Without any non-injecting browser in the dataset the baseline is empty
// and every engine finding for the injected browsers is kept. With no
// injected browsers the result is the native findings alone.
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

// CrossCheckFrom validates Figure 4's proxy-side byte accounting
// against the device's independent eBPF per-UID counters (the Android
// netd-style egress maps). The kernel sees ciphertext — TLS records,
// handshakes, DoH — so its per-UID egress must be at least the HTTP
// request bytes the proxy reconstructed for the same app. proxyBytes
// supplies those (a suite's Fig4Analyzer.ReqBytesTotal).
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
	// Values observed, sorted; a single stable value across many
	// visits is the tracking signal. Several values are a rotating
	// identifier or several installs: flows carry no install key, so
	// a population run's per-user identifiers also show up here.
	Values []string
	// Sightings counts the native flows whose identifier hits name
	// the parameter, once per flow.
	Sightings int
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

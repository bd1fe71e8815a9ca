// Package report renders analysis results as ASCII tables, bar charts,
// timelines and CSV — the repo's stand-in for the paper's matplotlib
// figures. Each renderer prints the same rows/series the corresponding
// figure or table reports.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"panoptes/internal/analysis"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
)

const barWidth = 40

func bar(value, max float64) string {
	if max <= 0 {
		return ""
	}
	n := int(value / max * barWidth)
	if n > barWidth {
		n = barWidth
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("█", n)
}

// Fig2 renders engine/native request counts with the native/engine
// ratio, like the paper's Figure 2.
func Fig2(w io.Writer, rows []analysis.Fig2Row) {
	fmt.Fprintln(w, "Figure 2 — requests generated by the website (engine) vs the browser (native)")
	var max float64
	for _, r := range rows {
		if float64(r.Engine) > max {
			max = float64(r.Engine)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s engine %7d |%-*s|\n", r.Browser, r.Engine, barWidth, bar(float64(r.Engine), max))
		fmt.Fprintf(w, "%-16s native %7d |%-*s| ratio %.2f\n", "", r.Native, barWidth, bar(float64(r.Native), max), r.Ratio)
	}
}

// Fig3 renders the ad-related share of native destinations.
func Fig3(w io.Writer, rows []analysis.Fig3Row) {
	fmt.Fprintln(w, "Figure 3 — % of distinct native-request domains that are third-party ad/analytics")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %5.1f%% (%d of %d domains) |%-*s|\n",
			r.Browser, r.AdPct, r.AdDomains, r.DistinctDomains, barWidth, bar(r.AdPct, 100))
		if len(r.AdDomainList) > 0 {
			fmt.Fprintf(w, "%-16s   %s\n", "", strings.Join(r.AdDomainList, ", "))
		}
	}
}

// Fig4 renders outgoing byte volumes.
func Fig4(w io.Writer, rows []analysis.Fig4Row) {
	fmt.Fprintln(w, "Figure 4 — outgoing traffic volume (request bytes): website vs browser-native")
	var max float64
	for _, r := range rows {
		if float64(r.EngineBytes) > max {
			max = float64(r.EngineBytes)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s engine %9d B |%-*s|\n", r.Browser, r.EngineBytes, barWidth, bar(float64(r.EngineBytes), max))
		fmt.Fprintf(w, "%-16s native %9d B |%-*s| +%.1f%%\n", "", r.NativeBytes, barWidth, bar(float64(r.NativeBytes), max), r.OverheadPct)
	}
}

// Fig5 renders idle timelines as sparkline-style cumulative curves.
func Fig5(w io.Writer, series []analysis.Fig5Series) {
	fmt.Fprintln(w, "Figure 5 — native requests while idle (cumulative, 10-minute window)")
	for _, s := range series {
		if len(s.Cumulative) == 0 {
			continue
		}
		max := s.Cumulative[len(s.Cumulative)-1]
		var sb strings.Builder
		marks := []rune(" ▁▂▃▄▅▆▇█")
		for _, c := range s.Cumulative {
			idx := 0
			if max > 0 {
				idx = c * (len(marks) - 1) / max
			}
			sb.WriteRune(marks[idx])
		}
		shape := "burst→plateau"
		if s.LinearityScore() > 0.8 {
			shape = "linear"
		}
		fmt.Fprintf(w, "%-16s %4d reqs  %s  [%s]\n", s.Browser, s.Total, sb.String(), shape)
		// Top destinations.
		type ds struct {
			d string
			p float64
		}
		var tops []ds
		for d, p := range s.DestShares {
			tops = append(tops, ds{d, p})
		}
		// Ties break by name: map order must not pick which tied
		// destinations make the cut or the order they print in.
		sort.Slice(tops, func(i, j int) bool {
			if tops[i].p != tops[j].p {
				return tops[i].p > tops[j].p
			}
			return tops[i].d < tops[j].d
		})
		if len(tops) > 3 {
			tops = tops[:3]
		}
		var parts []string
		for _, t := range tops {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", t.d, t.p))
		}
		fmt.Fprintf(w, "%-16s   %s\n", "", strings.Join(parts, ", "))
	}
}

// Table2 renders the PII matrix.
func Table2(w io.Writer, m pii.Matrix, browsers []string) {
	cols := pii.Columns()
	fmt.Fprintln(w, "Table 2 — PII and device-specific information leaked by the browser apps")
	fmt.Fprintf(w, "%-16s", "Browser")
	for _, c := range cols {
		fmt.Fprintf(w, " %-10s", abbrev(string(c), 10))
	}
	fmt.Fprintln(w)
	for _, b := range browsers {
		fmt.Fprintf(w, "%-16s", b)
		for _, c := range cols {
			v := "No"
			if m.Leaked(b, c) {
				v = "Yes"
			}
			fmt.Fprintf(w, " %-10s", v)
		}
		fmt.Fprintln(w)
	}
}

func abbrev(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Leaks renders the §3.2 history-leak summaries.
func Leaks(w io.Writer, sums []leak.Summary) {
	fmt.Fprintln(w, "§3.2 — browsing-history leaks in native traffic")
	if len(sums) == 0 {
		fmt.Fprintln(w, "  (none detected)")
		return
	}
	for _, s := range sums {
		fmt.Fprintf(w, "%-16s full-URL: %d reqs → %v\n", s.Browser, s.FullURLCount, s.FullURLHosts)
		if s.DomainCount > 0 {
			fmt.Fprintf(w, "%-16s domain:   %d reqs → %v\n", "", s.DomainCount, s.DomainHosts)
		}
		if s.IncognitoLeaks > 0 {
			fmt.Fprintf(w, "%-16s incognito leaks: %d\n", "", s.IncognitoLeaks)
		}
	}
}

// Geo renders §3.4's international-transfer table.
func Geo(w io.Writer, rows []analysis.GeoRow) {
	fmt.Fprintln(w, "§3.4 — countries receiving history leaks (crawl vantage: EU/GR)")
	fmt.Fprintf(w, "%-16s %-28s %-16s %-8s %-6s %s\n", "Browser", "Destination", "IP", "Country", "In EU", "Leak")
	for _, r := range rows {
		inEU := "no"
		if r.InEU {
			inEU = "yes"
		}
		fmt.Fprintf(w, "%-16s %-28s %-16s %-8s %-6s %s\n", r.Browser, r.Host, r.IP, r.Country, inEU, r.Kind)
	}
}

// DNS renders the resolver-path split.
func DNS(w io.Writer, usage map[string]string, browsers []string) {
	fmt.Fprintln(w, "§3.2 — resolver path per browser")
	doh := 0
	for _, b := range browsers {
		mode := usage[b]
		if strings.HasPrefix(mode, "doh") {
			doh++
		}
		fmt.Fprintf(w, "%-16s %s\n", b, mode)
	}
	fmt.Fprintf(w, "summary: %d/%d browsers use third-party DoH, %d use the local stub\n",
		doh, len(browsers), len(browsers)-doh)
}

// Transports renders the per-browser transport coverage rows — a
// Table-2-style breakdown of how many captured flows travelled each
// data-plane protocol, plus a dataset-wide mix line.
func Transports(w io.Writer, rows []analysis.TransportRow) {
	fmt.Fprintln(w, "Transport coverage — captured flows per data-plane protocol")
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s\n", "Browser", "h1", "h2", "ws", "doh", "total")
	var h1, h2, ws, doh, total int
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d %8d %8d %8d %8d\n", r.Browser, r.H1, r.H2, r.WS, r.DoH, r.Total)
		h1 += r.H1
		h2 += r.H2
		ws += r.WS
		doh += r.DoH
		total += r.Total
	}
	if total == 0 {
		return
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(total) }
	fmt.Fprintf(w, "mix: h1 %.1f%%, h2 %.1f%%, ws %.1f%%, doh %.1f%% of %d flows\n",
		pct(h1), pct(h2), pct(ws), pct(doh), total)
}

// CSVFig2 writes Figure 2 data as CSV.
func CSVFig2(w io.Writer, rows []analysis.Fig2Row) {
	fmt.Fprintln(w, "browser,engine_requests,native_requests,ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%d,%d,%.4f\n", r.Browser, r.Engine, r.Native, r.Ratio)
	}
}

// CSVFig4 writes Figure 4 data as CSV.
func CSVFig4(w io.Writer, rows []analysis.Fig4Row) {
	fmt.Fprintln(w, "browser,engine_bytes,native_bytes,overhead_pct")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%d,%d,%.2f\n", r.Browser, r.EngineBytes, r.NativeBytes, r.OverheadPct)
	}
}

// CSVFig5 writes a browser's cumulative idle curve as CSV.
func CSVFig5(w io.Writer, s analysis.Fig5Series) {
	fmt.Fprintln(w, "t_seconds,cumulative_native_requests")
	for i, c := range s.Cumulative {
		fmt.Fprintf(w, "%d,%d\n", (i+1)*s.BinSeconds, c)
	}
}

// Listing1 renders a captured Opera ad request like the paper's listing.
func Listing1(w io.Writer, body string) {
	fmt.Fprintln(w, "Listing 1 — native ad request issued by Opera (captured body)")
	if body == "" {
		fmt.Fprintln(w, "  (no Opera OLeads request captured)")
		return
	}
	fmt.Fprintln(w, "POST https://s-odx.oleads.com/api/v1/sdk_fetch")
	fmt.Fprintf(w, "body: %s\n", body)
}

// TrackableIDs renders the persistent-identifier analysis: the
// mechanism that defeats IP rotation, VPNs and Tor (§3.2).
func TrackableIDs(w io.Writer, ids []analysis.TrackableID) {
	fmt.Fprintln(w, "§3.2 — persistent identifiers accompanying native reports")
	if len(ids) == 0 {
		fmt.Fprintln(w, "  (none detected)")
		return
	}
	for _, id := range ids {
		stability := "STABLE across all visits — survives cookie clearing, IP change, Tor"
		if len(id.Values) > 1 {
			stability = fmt.Sprintf("%d distinct values (rotating, or %d installs: flows carry no install key)", len(id.Values), len(id.Values))
		}
		sample := id.Values[0]
		if len(sample) > 16 {
			sample = sample[:16] + "…"
		}
		fmt.Fprintf(w, "%-16s %s?%s=%s  seen %d×  %s\n",
			id.Browser, id.Host, id.Param, sample, id.Sightings, stability)
	}
}

// Sensitive renders the per-category sensitive-leak breakdown.
func Sensitive(w io.Writer, rows []analysis.SensitiveRow) {
	fmt.Fprintln(w, "§3.2 — full-URL leaks of sensitive-category visits")
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (no sensitive visits in this crawl)")
		return
	}
	for _, r := range rows {
		verdict := ""
		if r.Leaked == r.Visits && r.Visits > 0 {
			verdict = "  ← every visit reported (no local filtering)"
		}
		fmt.Fprintf(w, "%-16s %-10s %d/%d%s\n", r.Browser, r.Category, r.Leaked, r.Visits, verdict)
	}
}

// VolumeCrossCheck renders the kernel-vs-proxy byte validation.
func VolumeCrossCheck(w io.Writer, rows []analysis.VolumeCheck) {
	fmt.Fprintln(w, "cross-check — proxy-observed request bytes vs kernel (eBPF) per-UID egress")
	fmt.Fprintf(w, "%-16s %6s %14s %14s %s\n", "Browser", "UID", "proxy (HTTP)", "kernel (TLS)", "consistent")
	for _, r := range rows {
		ok := "yes"
		if !r.Consistent {
			ok = "NO"
		}
		fmt.Fprintf(w, "%-16s %6d %14d %14d %s\n", r.Browser, r.UID, r.ProxyReqBytes, r.KernelTxBytes, ok)
	}
}

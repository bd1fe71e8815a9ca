// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, each regenerating its result from a shared crawl
// (workload generation → instrumented crawl → analysis → rendering), plus
// the ablation benchmarks DESIGN.md calls out. Custom metrics attach the
// headline numbers (ratios, percentages) to the benchmark output so a
// run doubles as a results table.
package panoptes

import (
	"encoding/base64"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/blocker"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/leak"
	"panoptes/internal/netfilter"
	"panoptes/internal/profiles"
	"panoptes/internal/report"
	"panoptes/internal/websim"
)

// benchStudy is the shared crawl every figure/table benchmark analyses:
// all 15 browsers over a 16-site list, plus the per-browser idle runs.
var benchStudy struct {
	once  sync.Once
	world *core.World
	idle  map[string]*core.IdleResult
	names []string
	err   error
}

func study(b *testing.B) (*core.World, []string) {
	b.Helper()
	benchStudy.once.Do(func() {
		w, err := core.NewWorld(core.WorldConfig{Sites: 16})
		if err != nil {
			benchStudy.err = err
			return
		}
		if _, err := w.RunCampaign(core.CampaignConfig{}); err != nil {
			benchStudy.err = err
			return
		}
		// The idle experiment runs in its own world so its native flows
		// do not inflate the crawl's Figure 2/4 statistics.
		wIdle, err := core.NewWorld(core.WorldConfig{Sites: 4})
		if err != nil {
			benchStudy.err = err
			return
		}
		idle, err := wIdle.RunIdleAll(10 * time.Minute)
		if err != nil {
			benchStudy.err = err
			return
		}
		wIdle.Close()
		benchStudy.world = w
		benchStudy.idle = idle
		for _, p := range profiles.All() {
			benchStudy.names = append(benchStudy.names, p.Name)
		}
	})
	if benchStudy.err != nil {
		b.Fatal(benchStudy.err)
	}
	return benchStudy.world, benchStudy.names
}

// injectedBrowsers names the fleet browsers whose engine-side history
// leaks come from a script they inject into pages.
func injectedBrowsers() []string {
	var out []string
	for _, p := range profiles.All() {
		if p.InjectsScript {
			out = append(out, p.Name)
		}
	}
	return out
}

// BenchmarkTable1Dataset regenerates Table 1 (the browser dataset).
func BenchmarkTable1Dataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all := profiles.All()
		if len(all) != 15 {
			b.Fatal("dataset size")
		}
		for _, p := range all {
			fmt.Fprintf(io.Discard, "%s %s\n", p.Name, p.Version)
		}
	}
}

// BenchmarkFig2RequestCounts regenerates Figure 2 and reports the two
// headline ratios.
func BenchmarkFig2RequestCounts(b *testing.B) {
	w, _ := study(b)
	var rows []analysis.Fig2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = w.Suite.Fig2.Rows()
		report.Fig2(io.Discard, rows)
	}
	for _, r := range rows {
		switch r.Browser {
		case "Edge":
			b.ReportMetric(r.Ratio, "edge_ratio")
		case "Yandex":
			b.ReportMetric(r.Ratio, "yandex_ratio")
		}
	}
}

// BenchmarkFig3AdDomains regenerates Figure 3 and reports Kiwi's share.
func BenchmarkFig3AdDomains(b *testing.B) {
	w, _ := study(b)
	var rows []analysis.Fig3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = w.Suite.Fig3.Rows()
		report.Fig3(io.Discard, rows)
	}
	for _, r := range rows {
		if r.Browser == "Kiwi" {
			b.ReportMetric(r.AdPct, "kiwi_ad_pct")
		}
	}
}

// BenchmarkFig4TrafficVolume regenerates Figure 4 and reports QQ's
// overhead.
func BenchmarkFig4TrafficVolume(b *testing.B) {
	w, _ := study(b)
	var rows []analysis.Fig4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = w.Suite.Fig4.Rows()
		report.Fig4(io.Discard, rows)
	}
	for _, r := range rows {
		if r.Browser == "QQ" {
			b.ReportMetric(r.OverheadPct, "qq_overhead_pct")
		}
	}
}

// BenchmarkTable2PIIMatrix regenerates the PII leak matrix.
func BenchmarkTable2PIIMatrix(b *testing.B) {
	w, names := study(b)
	b.ResetTimer()
	var leakers int
	for i := 0; i < b.N; i++ {
		m := w.Suite.PII.Matrix()
		report.Table2(io.Discard, m, names)
		leakers = 0
		for _, n := range names {
			if m.Count(n) > 0 {
				leakers++
			}
		}
	}
	b.ReportMetric(float64(leakers), "browsers_leaking_pii")
}

// BenchmarkFig5IdleTimeline regenerates the idle timelines and reports
// Opera's linearity against the burst-shaped field.
func BenchmarkFig5IdleTimeline(b *testing.B) {
	_, names := study(b)
	var series []analysis.Fig5Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = series[:0]
		for _, n := range names {
			series = append(series, benchStudy.idle[n].Series)
		}
		report.Fig5(io.Discard, series)
	}
	for _, s := range series {
		if s.Browser == "Opera" {
			b.ReportMetric(s.LinearityScore(), "opera_linearity")
		}
		if s.Browser == "Dolphin" {
			b.ReportMetric(s.DestShares["facebook.com"], "dolphin_fb_pct")
		}
	}
}

// BenchmarkHistoryLeakDetection regenerates the §3.2 leak findings.
func BenchmarkHistoryLeakDetection(b *testing.B) {
	w, _ := study(b)
	var findings []leak.Finding
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings = analysis.CombineInjectedLeaks(w.Suite.LeakNative.Findings(), w.Suite.LeakEngine.Findings(), injectedBrowsers())
	}
	full := map[string]bool{}
	for _, f := range findings {
		if f.Kind == leak.KindFullURL {
			full[f.Browser] = true
		}
	}
	b.ReportMetric(float64(len(full)), "full_url_leakers")
}

// BenchmarkIncognitoLeaks runs a fresh incognito crawl per iteration and
// reports how many leaks survive private mode.
func BenchmarkIncognitoLeaks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := core.NewWorld(core.WorldConfig{
			Sites:    6,
			Profiles: []*profiles.Profile{profiles.Edge(), profiles.Opera()},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.RunCampaign(core.CampaignConfig{Incognito: true}); err != nil {
			b.Fatal(err)
		}
		incog := 0
		for _, f := range w.Suite.LeakNative.Findings() {
			if f.Incognito {
				incog++
			}
		}
		if incog == 0 {
			b.Fatal("no incognito leaks detected")
		}
		b.ReportMetric(float64(incog), "incognito_leaks")
		w.Close()
	}
}

// BenchmarkSensitiveLeaks crawls sensitive-category sites and verifies
// the absence of local filtering.
func BenchmarkSensitiveLeaks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := core.NewWorld(core.WorldConfig{
			Sites:    8,
			Profiles: []*profiles.Profile{profiles.Yandex()},
		})
		if err != nil {
			b.Fatal(err)
		}
		var sensitive []*websim.Site
		for _, s := range w.Sites {
			if s.Category.Sensitive() {
				sensitive = append(sensitive, s)
			}
		}
		if _, err := w.RunCampaign(core.CampaignConfig{Sites: sensitive}); err != nil {
			b.Fatal(err)
		}
		leaks := 0
		for _, f := range w.Suite.LeakNative.Findings() {
			if f.Kind == leak.KindFullURL {
				leaks++
			}
		}
		if leaks < len(sensitive) {
			b.Fatalf("only %d/%d sensitive visits leaked", leaks, len(sensitive))
		}
		b.ReportMetric(float64(leaks)/float64(len(sensitive)), "leaks_per_sensitive_visit")
		w.Close()
	}
}

// BenchmarkGeoTransfers regenerates the §3.4 mapping.
func BenchmarkGeoTransfers(b *testing.B) {
	w, _ := study(b)
	geo, err := w.GeoDB()
	if err != nil {
		b.Fatal(err)
	}
	findings := analysis.CombineInjectedLeaks(w.Suite.LeakNative.Findings(), w.Suite.LeakEngine.Findings(), injectedBrowsers())
	var rows []analysis.GeoRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = analysis.GeoTransfers(findings, w.Inet, geo)
		if err != nil {
			b.Fatal(err)
		}
		report.Geo(io.Discard, rows)
	}
	outside := 0
	for _, r := range rows {
		if !r.InEU && r.Kind == leak.KindFullURL {
			outside++
		}
	}
	b.ReportMetric(float64(outside), "full_url_receivers_outside_eu")
}

// BenchmarkListing1OperaAdRequest regenerates the captured Opera OLeads
// request.
func BenchmarkListing1OperaAdRequest(b *testing.B) {
	w, _ := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := w.Suite.Listing1.Result()
		if body == "" {
			b.Fatal("listing 1 not captured")
		}
		report.Listing1(io.Discard, body)
	}
}

// --- Ablation benchmarks (DESIGN.md §4) ---

// BenchmarkAblationUIDOnlySplit compares taint-based splitting against
// UID-only attribution: the latter cannot separate engine from native
// traffic at all, collapsing Figures 2–4 into single per-app totals.
func BenchmarkAblationUIDOnlySplit(b *testing.B) {
	w, names := study(b)
	b.ResetTimer()
	var lost int
	for i := 0; i < b.N; i++ {
		totals := analysis.UIDOnlySplit(w.DB, names)
		rows := w.Suite.Fig2.Rows()
		lost = 0
		for _, r := range rows {
			// Native requests indistinguishable from engine ones under
			// UID-only attribution.
			if totals[r.Browser] > 0 {
				lost += r.Native
			}
		}
	}
	b.ReportMetric(float64(lost), "native_reqs_unattributable")
}

// BenchmarkAblationPinningLoss measures the flows lost to certificate
// pinning under transparent interception (paper footnote 3): QQ's pinned
// endpoint never completes through the proxy.
func BenchmarkAblationPinningLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := core.NewWorld(core.WorldConfig{
			Sites: 6, Profiles: []*profiles.Profile{profiles.QQ()},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.RunCampaign(core.CampaignConfig{}); err != nil {
			b.Fatal(err)
		}
		fails := w.Proxy.HandshakeFailures()
		if fails == 0 {
			b.Fatal("pinning produced no handshake failures")
		}
		b.ReportMetric(float64(fails), "pinned_handshake_failures")
		w.Close()
	}
}

// BenchmarkAblationCertCache compares leaf-certificate minting costs with
// the cache on and off across a fixed crawl.
func BenchmarkAblationCertCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "cache=on"
		if disable {
			name = "cache=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := core.NewWorld(core.WorldConfig{
					Sites: 6, Profiles: []*profiles.Profile{profiles.Chrome()},
					DisableCertCache: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.RunCampaign(core.CampaignConfig{}); err != nil {
					b.Fatal(err)
				}
				hits, misses := w.Proxy.CertCacheStats()
				b.ReportMetric(float64(misses), "leaf_certs_minted")
				if hits+misses > 0 {
					b.ReportMetric(100*float64(hits)/float64(hits+misses), "cert_cache_hit_pct")
				}
				w.Close()
			}
		})
	}
}

// BenchmarkAblationKeepAlive compares upstream connection reuse on/off.
func BenchmarkAblationKeepAlive(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "keepalive=on"
		if disable {
			name = "keepalive=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := core.NewWorld(core.WorldConfig{
					Sites: 6, Profiles: []*profiles.Profile{profiles.Chrome()},
					DisableKeepAlive: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.RunCampaign(core.CampaignConfig{}); err != nil {
					b.Fatal(err)
				}
				w.Close()
			}
		})
	}
}

// BenchmarkAblationH3Block evaluates the UDP/443 DROP rule: with it, a
// QUIC-capable browser falls back to proxied TCP; without it, those
// flows would bypass the MITM proxy entirely and go unmeasured.
func BenchmarkAblationH3Block(b *testing.B) {
	mkStack := func(withBlock bool) *netfilter.Stack {
		s := netfilter.NewStack()
		s.Exec("-t nat -A OUTPUT -p tcp -m owner --uid-owner 10089 -j REDIRECT --to 192.168.1.100:8080")
		if withBlock {
			s.Exec("-t filter -A OUTPUT -p udp --dport 443 -j DROP")
		}
		return s
	}
	for _, withBlock := range []bool{true, false} {
		name := "h3block=on"
		if !withBlock {
			name = "h3block=off"
		}
		b.Run(name, func(b *testing.B) {
			s := mkStack(withBlock)
			missed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				missed = 0
				for j := 0; j < 1000; j++ {
					// A QUIC attempt: UDP to port 443.
					res, err := s.EvalOutput(netfilter.Packet{
						Proto: netfilter.ProtoUDP, DstPort: 443, OwnerUID: 10089,
					})
					if err != nil {
						b.Fatal(err)
					}
					// ACCEPTed QUIC bypasses the TCP-only proxy redirect:
					// the flow escapes measurement.
					if res.Verdict == netfilter.VerdictAccept {
						missed++
					}
				}
			}
			b.ReportMetric(float64(missed), "flows_bypassing_proxy")
		})
	}
}

// BenchmarkAblationLeakEncodings compares the plain-only detector against
// the full encoding set on a store of Base64-encoded leaks (Yandex's
// actual wire format).
func BenchmarkAblationLeakEncodings(b *testing.B) {
	var flows []*capture.Flow
	visit := "https://mentalhealth-support.org/"
	for i := 0; i < 200; i++ {
		flows = append(flows, &capture.Flow{
			ID: capture.NextFlowID(), Browser: "Yandex", Host: "sba.yandex.net",
			Origin: capture.OriginNative, Path: "/safebrowsing/check", VisitURL: visit,
			RawQuery: "url=" + base64.StdEncoding.EncodeToString([]byte(visit)),
		})
	}
	for _, full := range []bool{true, false} {
		name := "encodings=full"
		det := leak.NewDetector()
		if !full {
			name = "encodings=plain"
			det = &leak.Detector{Encodings: leak.PlainOnly()}
		}
		b.Run(name, func(b *testing.B) {
			var found int
			for i := 0; i < b.N; i++ {
				s := leak.NewStreamScanner(det, capture.OriginNative)
				for _, f := range flows {
					s.Observe(f)
				}
				found = len(s.Findings())
			}
			b.ReportMetric(float64(found)/200*100, "detection_pct")
		})
	}
}

// BenchmarkCountermeasure evaluates the blocker prototype (internal/
// blocker, the paper's §4 "countermeasures" direction): block rate on
// native tracking, zero interference with engine traffic.
func BenchmarkCountermeasure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := core.NewWorld(core.WorldConfig{
			Sites:    6,
			Profiles: []*profiles.Profile{profiles.Yandex(), profiles.Whale()},
		})
		if err != nil {
			b.Fatal(err)
		}
		blk := blocker.New(blocker.DefaultPolicy(), w.Hostlist)
		w.Proxy.Use(blk)
		res, err := w.RunCampaign(core.CampaignConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors != 0 {
			b.Fatalf("blocker broke %d navigations", res.Errors)
		}
		if got := w.Vendors.Backend("sba.yandex.net").Count(); got != 0 {
			b.Fatalf("%d history reports leaked past the blocker", got)
		}
		s := blk.Stats()
		b.ReportMetric(100*float64(s.NativeBlocked)/float64(s.NativeExamined), "native_block_pct")
		b.ReportMetric(float64(s.EnginePassed), "engine_flows_untouched")
		w.Close()
	}
}

// BenchmarkStreamingRetention runs the same crawl with flow retention
// on and off: the streaming analyzers make the figures independent of
// the stores, so retain=none should hold resident flows (and retained
// bytes) at zero with no visible throughput cost — the memory-bound
// axis for paper-scale (1000-site) campaigns.
func BenchmarkStreamingRetention(b *testing.B) {
	for _, retain := range []capture.RetainMode{capture.RetainAll, capture.RetainNone} {
		name := "retain=all"
		if retain == capture.RetainNone {
			name = "retain=none"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				w, err := core.NewWorld(core.WorldConfig{
					Sites:    8,
					Profiles: []*profiles.Profile{profiles.Chrome(), profiles.Yandex(), profiles.Opera()},
					Retain:   retain,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := w.RunCampaign(core.CampaignConfig{Parallelism: 4})
				if err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start).Seconds()
				if rows := w.Suite.Fig2.Rows(); len(rows) == 0 {
					b.Fatal("streaming suite produced no Figure 2 rows")
				}
				resident := w.DB.Engine.Len() + w.DB.Native.Len() +
					w.DB.Engine.Pending() + w.DB.Native.Pending()
				if retain == capture.RetainNone && resident != 0 {
					b.Fatalf("retain=none left %d flows resident", resident)
				}
				b.ReportMetric(float64(len(res.Visits))/elapsed, "visits/sec")
				b.ReportMetric(float64(resident), "resident_flows")
				b.ReportMetric(float64(w.DB.Engine.TotalBytes(false)+w.DB.Native.TotalBytes(false)), "bytes_retained")
				w.Close()
			}
		})
	}
}

// BenchmarkAnalysisStreamingVsBatch compares producing every figure
// from the live streaming suite (already folded in during the crawl —
// rendering is all that remains) against replaying the retained stores
// through a fresh suite, as an offline analysis does.
func BenchmarkAnalysisStreamingVsBatch(b *testing.B) {
	w, names := study(b)
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report.Fig2(io.Discard, w.Suite.Fig2.Rows())
			report.Fig3(io.Discard, w.Suite.Fig3.Rows())
			report.Fig4(io.Discard, w.Suite.Fig4.Rows())
			report.Table2(io.Discard, w.Suite.PII.Matrix(), names)
			report.Leaks(io.Discard, leak.Summarise(w.Suite.LeakNative.Findings()))
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := analysis.NewSuite(w.Hostlist, names)
			s.Replay(w.DB)
			report.Fig2(io.Discard, s.Fig2.Rows())
			report.Fig3(io.Discard, s.Fig3.Rows())
			report.Fig4(io.Discard, s.Fig4.Rows())
			report.Table2(io.Discard, s.PII.Matrix(), names)
			report.Leaks(io.Discard, leak.Summarise(s.LeakNative.Findings()))
		}
	})
}

// BenchmarkCrawlScaling measures end-to-end crawl throughput (visits per
// second of wall clock) along two axes: site count on a single browser
// (sites=N, the per-visit cost sweep) and scheduler parallelism on the
// full 15-browser fleet (parallel=N, the concurrent-campaign sweep the
// paper-scale crawl depends on). Flow throughput is read from each
// world's own stores, not the process-cumulative obs counters — those
// double-count when benchmarks repeat, run in parallel or with -cpu.
func BenchmarkCrawlScaling(b *testing.B) {
	crawl := func(b *testing.B, cfg core.WorldConfig, parallelism int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			w, err := core.NewWorld(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := w.RunCampaign(core.CampaignConfig{Parallelism: parallelism})
			if err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start).Seconds()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(len(res.Visits))/elapsed, "visits/sec")
			b.ReportMetric(float64(w.DB.Engine.Len()+w.DB.Native.Len())/elapsed, "flows/sec")
			if n := len(res.Visits); n > 0 {
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n), "allocs/visit")
			}
			// Data-plane warmth: what fraction of the proxy's handshakes
			// were TLS resumptions, and of its upstream exchanges rode a
			// pooled connection.
			cr, cf, ur, uf := w.Proxy.ResumptionStats()
			if hs := cr + cf + ur + uf; hs > 0 {
				b.ReportMetric(100*float64(cr+ur)/float64(hs), "handshake_resumed_pct")
			}
			reused, dialed := w.Proxy.ConnReuseStats()
			if ex := reused + dialed; ex > 0 {
				b.ReportMetric(100*float64(reused)/float64(ex), "conn_reuse_pct")
			}
			// Per-transport throughput: how much of the capture rate each
			// data-plane protocol contributes (the streaming suite's rows
			// are per-world, unlike the process-global obs counters).
			var h1, h2, ws, doh int
			for _, r := range w.Suite.Transport.Rows() {
				h1 += r.H1
				h2 += r.H2
				ws += r.WS
				doh += r.DoH
			}
			b.ReportMetric(float64(h1)/elapsed, "h1_flows/sec")
			b.ReportMetric(float64(h2)/elapsed, "h2_flows/sec")
			b.ReportMetric(float64(ws)/elapsed, "ws_flows/sec")
			b.ReportMetric(float64(doh)/elapsed, "doh_flows/sec")
			w.Close()
		}
	}

	// The sites axis pairs Chrome with Dolphin so every transport moves:
	// Chrome alone keeps the ws_flows/sec metric pinned at zero (no
	// browser in the fleet but Dolphin pushes WebSocket telemetry).
	for _, sites := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			crawl(b, core.WorldConfig{Sites: sites,
				Profiles: []*profiles.Profile{profiles.Chrome(), profiles.Dolphin()}}, 1)
		})
	}
	// The parallel axis models a wide-area RTT on each proxied exchange
	// (WorldConfig.UpstreamRTT). The zero-latency in-memory network leaves
	// a crawl purely CPU-bound, which on a single-core host would misreport
	// the scheduler as useless; the crawl the paper ran is network-bound,
	// and overlapping those waits across browsers is exactly what campaign
	// parallelism buys.
	const benchRTT = 10 * time.Millisecond
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			// nil Profiles = the full 15-browser fleet.
			crawl(b, core.WorldConfig{Sites: 4, UpstreamRTT: benchRTT}, par)
		})
	}
	// The cold ablation is the pre-reuse data plane: no upstream pool,
	// no TLS session resumption, so every exchange pays the dial and
	// handshake flights a warm connection skips. The warm/cold ratio at
	// parallelism 8 is the headline data-plane speedup.
	b.Run("cold/parallel=8", func(b *testing.B) {
		crawl(b, core.WorldConfig{
			Sites:            4,
			UpstreamRTT:      benchRTT,
			DisableKeepAlive: true,
			DisableTLSResume: true,
		}, 8)
	})
}

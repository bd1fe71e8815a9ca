package report

import (
	"strings"
	"testing"

	"panoptes/internal/analysis"
	"panoptes/internal/leak"
	"panoptes/internal/obs"
	"panoptes/internal/pii"
)

func TestFig2Rendering(t *testing.T) {
	var sb strings.Builder
	Fig2(&sb, []analysis.Fig2Row{
		{Browser: "Edge", Engine: 800, Native: 304, Ratio: 0.38},
		{Browser: "Chrome", Engine: 800, Native: 40, Ratio: 0.05},
	})
	out := sb.String()
	for _, want := range []string{"Figure 2", "Edge", "ratio 0.38", "Chrome", "engine     800"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The larger value must have a longer bar.
	lines := strings.Split(out, "\n")
	var engineBar, nativeBar int
	for _, l := range lines {
		if strings.Contains(l, "engine     800") {
			engineBar = strings.Count(l, "█")
		}
		if strings.Contains(l, "native      40") {
			nativeBar = strings.Count(l, "█")
		}
	}
	if engineBar <= nativeBar {
		t.Errorf("bars not proportional: engine %d vs native %d", engineBar, nativeBar)
	}
}

func TestFig3Rendering(t *testing.T) {
	var sb strings.Builder
	Fig3(&sb, []analysis.Fig3Row{
		{Browser: "Kiwi", DistinctDomains: 15, AdDomains: 6, AdPct: 40,
			AdDomainList: []string{"adnxs.com", "openx.net"}},
	})
	out := sb.String()
	if !strings.Contains(out, "40.0%") || !strings.Contains(out, "adnxs.com, openx.net") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFig4Rendering(t *testing.T) {
	var sb strings.Builder
	Fig4(&sb, []analysis.Fig4Row{
		{Browser: "QQ", EngineBytes: 100000, NativeBytes: 42000, OverheadPct: 42},
	})
	if !strings.Contains(sb.String(), "+42.0%") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestFig5Rendering(t *testing.T) {
	var sb strings.Builder
	linear := make([]int, 60)
	for i := range linear {
		linear[i] = i + 1
	}
	burst := make([]int, 60)
	for i := range burst {
		burst[i] = 50
	}
	burst[0] = 40
	Fig5(&sb, []analysis.Fig5Series{
		{Browser: "Opera", BinSeconds: 10, Cumulative: linear, Total: 60,
			DestShares: map[string]float64{"doubleclick.net": 21.9, "opera-api.com": 52}},
		{Browser: "Chrome", BinSeconds: 10, Cumulative: burst, Total: 50,
			DestShares: map[string]float64{"googleapis.com": 80}},
	})
	out := sb.String()
	if !strings.Contains(out, "[linear]") {
		t.Errorf("Opera not labelled linear:\n%s", out)
	}
	if !strings.Contains(out, "[burst→plateau]") {
		t.Errorf("Chrome not labelled burst:\n%s", out)
	}
	if !strings.Contains(out, "doubleclick.net 21.9%") {
		t.Errorf("dest shares missing:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	m := pii.Matrix{
		"Whale":  {pii.AttrLocalIP: true, pii.AttrRooted: true},
		"Chrome": {},
	}
	var sb strings.Builder
	Table2(&sb, m, []string{"Chrome", "Whale"})
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "Yes") || strings.Contains(lines[2], "Yes") {
		t.Errorf("matrix cells wrong:\n%s", out)
	}
}

func TestLeaksRendering(t *testing.T) {
	var sb strings.Builder
	Leaks(&sb, []leak.Summary{{
		Browser: "Yandex", FullURLCount: 24, FullURLHosts: []string{"sba.yandex.net"},
		DomainCount: 24, DomainHosts: []string{"api.browser.yandex.ru"},
		IncognitoLeaks: 0,
	}})
	out := sb.String()
	if !strings.Contains(out, "sba.yandex.net") || !strings.Contains(out, "full-URL: 24") {
		t.Errorf("output:\n%s", out)
	}
	sb.Reset()
	Leaks(&sb, nil)
	if !strings.Contains(sb.String(), "none detected") {
		t.Error("empty case not rendered")
	}
}

func TestGeoRendering(t *testing.T) {
	var sb strings.Builder
	Geo(&sb, []analysis.GeoRow{
		{Browser: "Yandex", Host: "sba.yandex.net", IP: "20.3.0.1", Country: "RU", InEU: false, Kind: leak.KindFullURL},
	})
	out := sb.String()
	if !strings.Contains(out, "RU") || !strings.Contains(out, "full-url") {
		t.Errorf("output:\n%s", out)
	}
}

func TestDNSRendering(t *testing.T) {
	var sb strings.Builder
	DNS(&sb, map[string]string{"Chrome": "doh-google", "Yandex": "local"},
		[]string{"Chrome", "Yandex"})
	out := sb.String()
	if !strings.Contains(out, "1/2 browsers use third-party DoH") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCSVOutputs(t *testing.T) {
	var sb strings.Builder
	CSVFig2(&sb, []analysis.Fig2Row{{Browser: "Edge", Engine: 10, Native: 4, Ratio: 0.4}})
	if !strings.Contains(sb.String(), "Edge,10,4,0.4000") {
		t.Errorf("csv fig2:\n%s", sb.String())
	}
	sb.Reset()
	CSVFig4(&sb, []analysis.Fig4Row{{Browser: "QQ", EngineBytes: 9, NativeBytes: 4, OverheadPct: 44.4}})
	if !strings.Contains(sb.String(), "QQ,9,4,44.40") {
		t.Errorf("csv fig4:\n%s", sb.String())
	}
	sb.Reset()
	CSVFig5(&sb, analysis.Fig5Series{BinSeconds: 10, Cumulative: []int{1, 3}})
	if !strings.Contains(sb.String(), "10,1\n20,3\n") {
		t.Errorf("csv fig5:\n%s", sb.String())
	}
}

func TestListing1Rendering(t *testing.T) {
	var sb strings.Builder
	Listing1(&sb, `{"operaId":"abc"}`)
	if !strings.Contains(sb.String(), "s-odx.oleads.com") || !strings.Contains(sb.String(), "operaId") {
		t.Errorf("output:\n%s", sb.String())
	}
	sb.Reset()
	Listing1(&sb, "")
	if !strings.Contains(sb.String(), "no Opera OLeads request") {
		t.Error("empty case not rendered")
	}
}

func TestBarClamping(t *testing.T) {
	if got := bar(200, 100); len([]rune(got)) != barWidth {
		t.Fatalf("overlong bar = %d runes", len([]rune(got)))
	}
	if bar(-5, 100) != "" || bar(5, 0) != "" {
		t.Fatal("degenerate bars not empty")
	}
}

func TestFig5EmptySeriesSkipped(t *testing.T) {
	var sb strings.Builder
	Fig5(&sb, []analysis.Fig5Series{{Browser: "Empty"}})
	if strings.Contains(sb.String(), "Empty") {
		t.Error("empty series rendered")
	}
}

func TestTrackableIDsRendering(t *testing.T) {
	var sb strings.Builder
	TrackableIDs(&sb, []analysis.TrackableID{
		{Browser: "Yandex", Host: "api.browser.yandex.ru", Param: "uuid",
			Values: []string{"a1b2c3d4e5f60718293a4b5c6d7e8f90"}, Sightings: 200},
		{Browser: "X", Host: "h.example", Param: "clientid",
			Values: []string{"1111111111111111", "2222222222222222"}, Sightings: 4},
	})
	out := sb.String()
	if !strings.Contains(out, "STABLE") || !strings.Contains(out, "seen 200×") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "2 distinct values (rotating)") {
		t.Errorf("rotation case missing:\n%s", out)
	}
	sb.Reset()
	TrackableIDs(&sb, nil)
	if !strings.Contains(sb.String(), "none detected") {
		t.Error("empty case")
	}
}

func TestVolumeCrossCheckRendering(t *testing.T) {
	var sb strings.Builder
	VolumeCrossCheck(&sb, []analysis.VolumeCheck{
		{Browser: "Edge", UID: 10001, ProxyReqBytes: 100, KernelTxBytes: 150, Consistent: true},
		{Browser: "Bad", UID: 10002, ProxyReqBytes: 100, KernelTxBytes: 50, Consistent: false},
	})
	out := sb.String()
	if !strings.Contains(out, "yes") || !strings.Contains(out, "NO") {
		t.Errorf("output:\n%s", out)
	}
}

func TestPipelineObsSummaryLabelsSampledLatency(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("pipeline_observed_total", "analyzer", "fig2").Add(130)
	h := r.Histogram("pipeline_observe_seconds", obs.ExponentialBuckets(1e-6, 4, 10), "analyzer", "fig2")
	for range 3 { // flows 1, 65 and 129 of 130
		h.Observe(2e-6)
	}
	var b strings.Builder
	PipelineObsSummary(&b, r)
	out := b.String()
	for _, want := range []string{"p50*", "p95*", "latency sampled: the first flow and every 64th", " 130 "} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}

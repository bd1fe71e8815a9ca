package analysis_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
	"panoptes/internal/profiles"
)

// fullStudy runs one complete study (crawl all 15 browsers over a
// mid-size site list) and is shared across the shape tests.
var fullStudy struct {
	once  sync.Once
	world *core.World
	err   error
	names []string
}

func study(t *testing.T) (*core.World, []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	fullStudy.once.Do(func() {
		w, err := core.NewWorld(core.WorldConfig{Sites: 24})
		if err != nil {
			fullStudy.err = err
			return
		}
		if _, err := w.RunCampaign(core.CampaignConfig{}); err != nil {
			fullStudy.err = err
			return
		}
		fullStudy.world = w
		for _, p := range profiles.All() {
			fullStudy.names = append(fullStudy.names, p.Name)
		}
	})
	if fullStudy.err != nil {
		t.Fatal(fullStudy.err)
	}
	return fullStudy.world, fullStudy.names
}

func rowFor(rows []analysis.Fig2Row, name string) analysis.Fig2Row {
	for _, r := range rows {
		if r.Browser == name {
			return r
		}
	}
	return analysis.Fig2Row{}
}

func TestFig2Shape(t *testing.T) {
	w, _ := study(t)
	rows := w.Suite.Fig2.Rows()
	ratios := map[string]float64{}
	for _, r := range rows {
		if r.Engine == 0 {
			t.Fatalf("%s: no engine traffic", r.Browser)
		}
		ratios[r.Browser] = r.Ratio
		t.Logf("Fig2 %-16s engine=%4d native=%4d ratio=%.3f", r.Browser, r.Engine, r.Native, r.Ratio)
	}
	// Paper: Edge ≈ 0.38 and Yandex ≈ 0.39 top the field; Vivaldi, Whale,
	// CocCoc also above 1/3; Chrome and Brave are near-silent.
	for _, top := range []string{"Edge", "Yandex"} {
		if ratios[top] < 0.28 || ratios[top] > 0.52 {
			t.Errorf("%s ratio = %.3f, want ≈0.38", top, ratios[top])
		}
	}
	for _, mid := range []string{"Vivaldi", "Whale", "CocCoc"} {
		if ratios[mid] < 0.25 {
			t.Errorf("%s ratio = %.3f, want > 1/4 (paper: >1/3)", mid, ratios[mid])
		}
	}
	for _, quiet := range []string{"Chrome", "Brave", "DuckDuckGo"} {
		if ratios[quiet] > 0.15 {
			t.Errorf("%s ratio = %.3f, want quiet (<0.15)", quiet, ratios[quiet])
		}
	}
	if ratios["Chrome"] >= ratios["Edge"] {
		t.Error("Chrome should be far below Edge")
	}
}

func TestFig3Shape(t *testing.T) {
	w, _ := study(t)
	rows := w.Suite.Fig3.Rows()
	pct := map[string]float64{}
	nonzero := 0
	for _, r := range rows {
		pct[r.Browser] = r.AdPct
		if r.AdDomains > 0 {
			nonzero++
		}
		t.Logf("Fig3 %-16s %5.1f%% (%d/%d) %v", r.Browser, r.AdPct, r.AdDomains, r.DistinctDomains, r.AdDomainList)
	}
	// Paper: 8 of 15 browsers issue native requests to ad servers.
	if nonzero != 8 {
		t.Errorf("browsers with ad-related native domains = %d, want 8", nonzero)
	}
	// Kiwi ≈ 40% is the maximum; Opera ≈ 19.2%; Yandex ≈ 16%.
	if pct["Kiwi"] < 30 || pct["Kiwi"] > 50 {
		t.Errorf("Kiwi = %.1f%%, want ≈40%%", pct["Kiwi"])
	}
	for b, want := range map[string]float64{"Opera": 19.2, "Yandex": 16} {
		if pct[b] < want-8 || pct[b] > want+8 {
			t.Errorf("%s = %.1f%%, want ≈%.1f%%", b, pct[b], want)
		}
	}
	for _, r := range rows {
		if r.Browser != "Kiwi" && r.AdPct > pct["Kiwi"] {
			t.Errorf("%s (%.1f%%) exceeds Kiwi (%.1f%%)", r.Browser, r.AdPct, pct["Kiwi"])
		}
	}
	// Kiwi's ad destinations include the domains the paper names.
	kiwi := rowFor3(rows, "Kiwi")
	for _, d := range []string{"rubiconproject.com", "adnxs.com", "openx.net", "pubmatic.com", "bidswitch.net", "demdex.net"} {
		if !slices.Contains(kiwi.AdDomainList, d) {
			t.Errorf("Kiwi ad domains missing %s: %v", d, kiwi.AdDomainList)
		}
	}
	// Zero rows for the clean browsers.
	for _, b := range []string{"Chrome", "Brave", "Samsung", "DuckDuckGo", "Whale", "Vivaldi", "UC International"} {
		if pct[b] != 0 {
			t.Errorf("%s = %.1f%%, want 0", b, pct[b])
		}
	}
}

func rowFor3(rows []analysis.Fig3Row, name string) analysis.Fig3Row {
	for _, r := range rows {
		if r.Browser == name {
			return r
		}
	}
	return analysis.Fig3Row{}
}

func TestFig4Shape(t *testing.T) {
	w, _ := study(t)
	rows := w.Suite.Fig4.Rows()
	over := map[string]float64{}
	for _, r := range rows {
		over[r.Browser] = r.OverheadPct
		t.Logf("Fig4 %-16s engine=%8dB native=%8dB +%.1f%%", r.Browser, r.EngineBytes, r.NativeBytes, r.OverheadPct)
	}
	// QQ is the outlier at ≈42% extra outgoing traffic.
	if over["QQ"] < 30 || over["QQ"] > 60 {
		t.Errorf("QQ overhead = %.1f%%, want ≈42%%", over["QQ"])
	}
	for _, r := range rows {
		if r.Browser != "QQ" && r.OverheadPct > over["QQ"] {
			t.Errorf("%s (+%.1f%%) exceeds QQ (+%.1f%%)", r.Browser, r.OverheadPct, over["QQ"])
		}
	}
	if over["Chrome"] > 15 || over["Brave"] > 15 {
		t.Errorf("quiet browsers too heavy: Chrome +%.1f%%, Brave +%.1f%%", over["Chrome"], over["Brave"])
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	w, _ := study(t)
	m := w.Suite.PII.Matrix()

	// The paper's Table 2, cell for cell.
	want := map[string][]pii.Attribute{
		"Chrome":           {},
		"Edge":             {pii.AttrDeviceManuf, pii.AttrTimezone, pii.AttrResolution, pii.AttrLocale, pii.AttrConnType, pii.AttrNetType},
		"Opera":            {pii.AttrDeviceManuf, pii.AttrTimezone, pii.AttrResolution, pii.AttrLocale, pii.AttrCountry, pii.AttrLocation, pii.AttrNetType},
		"Vivaldi":          {pii.AttrResolution},
		"Yandex":           {pii.AttrDeviceType, pii.AttrDeviceManuf, pii.AttrResolution, pii.AttrDPI, pii.AttrLocale, pii.AttrNetType},
		"Brave":            {},
		"Samsung":          {pii.AttrLocale},
		"DuckDuckGo":       {},
		"Dolphin":          {},
		"Whale":            {pii.AttrResolution, pii.AttrLocalIP, pii.AttrRooted, pii.AttrLocale, pii.AttrCountry, pii.AttrNetType},
		"Mint":             {pii.AttrTimezone, pii.AttrResolution, pii.AttrLocale, pii.AttrCountry},
		"Kiwi":             {},
		"CocCoc":           {pii.AttrDeviceType, pii.AttrDeviceManuf, pii.AttrResolution, pii.AttrLocale, pii.AttrCountry},
		"QQ":               {pii.AttrDeviceType, pii.AttrDeviceManuf, pii.AttrResolution},
		"UC International": {pii.AttrLocale, pii.AttrNetType},
	}
	for browser, attrs := range want {
		wantSet := map[pii.Attribute]bool{}
		for _, a := range attrs {
			wantSet[a] = true
		}
		for _, col := range pii.Columns() {
			got := m.Leaked(browser, col)
			if got != wantSet[col] {
				t.Errorf("Table2 %s / %s = %v, paper says %v", browser, col, got, wantSet[col])
			}
		}
	}
}

func TestHistoryLeaksMatchPaper(t *testing.T) {
	w, _ := study(t)
	sums := leak.Summarise(w.Suite.LeakNative.Findings())
	full := map[string][]string{}
	domain := map[string][]string{}
	for _, s := range sums {
		full[s.Browser] = s.FullURLHosts
		domain[s.Browser] = s.DomainHosts
		t.Logf("Leak %-16s full=%v domain=%v", s.Browser, s.FullURLHosts, s.DomainHosts)
	}
	// Yandex and QQ leak full URLs natively.
	if !slices.Contains(full["Yandex"], "sba.yandex.net") {
		t.Errorf("Yandex full-URL leak to sba.yandex.net missing: %v", full["Yandex"])
	}
	if !slices.Contains(full["QQ"], "wup.browser.qq.com") {
		t.Errorf("QQ full-URL leak missing: %v", full["QQ"])
	}
	// Edge reports every visited domain to the Bing API; Opera to
	// Sitecheck; Yandex's api.browser gets the hostname.
	if !slices.Contains(domain["Edge"], "api.bing.com") {
		t.Errorf("Edge domain leak to Bing missing: %v", domain["Edge"])
	}
	if !slices.Contains(domain["Opera"], "sitecheck2.opera.com") {
		t.Errorf("Opera Sitecheck leak missing: %v", domain["Opera"])
	}
	if !slices.Contains(domain["Yandex"], "api.browser.yandex.ru") {
		t.Errorf("Yandex host leak missing: %v", domain["Yandex"])
	}
	// Clean browsers leak nothing.
	for _, b := range []string{"Chrome", "Brave", "DuckDuckGo"} {
		if len(full[b])+len(domain[b]) > 0 {
			t.Errorf("%s unexpectedly leaks: full=%v domain=%v", b, full[b], domain[b])
		}
	}
}

func TestGeoTransfersMatchPaper(t *testing.T) {
	w, _ := study(t)
	geo, err := w.GeoDB()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := analysis.GeoTransfers(w.Suite.LeakNative.Findings(), w.Inet, geo)
	if err != nil {
		t.Fatal(err)
	}
	countries := map[string]map[string]bool{}
	for _, r := range rows {
		if countries[r.Browser] == nil {
			countries[r.Browser] = map[string]bool{}
		}
		if r.Kind == leak.KindFullURL {
			countries[r.Browser][r.Country] = true
		}
		if r.InEU {
			t.Errorf("leak receiver inside the EU: %+v", r)
		}
	}
	// Paper §3.4: Yandex→RU, QQ→CN full-history receivers.
	if !countries["Yandex"]["RU"] {
		t.Errorf("Yandex full-URL receiver not in RU: %v", countries["Yandex"])
	}
	if !countries["QQ"]["CN"] {
		t.Errorf("QQ full-URL receiver not in CN: %v", countries["QQ"])
	}
	// UC leaks through the engine; check the engine side explicitly.
	ucRows, err := analysis.GeoTransfers(w.Suite.LeakEngine.Findings(), w.Inet, geo)
	if err != nil {
		t.Fatal(err)
	}
	ucCA := false
	for _, r := range ucRows {
		if r.Browser == "UC International" && r.Country == "CA" && r.Kind == leak.KindFullURL {
			ucCA = true
		}
	}
	if !ucCA {
		t.Error("UC International full-URL receiver in CA not found on the engine side")
	}
}

func TestDNSUsageSplit(t *testing.T) {
	w, _ := study(t)
	usage := w.Suite.DNS.Usage()
	doh, local := 0, 0
	for b, mode := range usage {
		t.Logf("DNS %-16s %s", b, mode)
		if strings.HasPrefix(mode, "doh") {
			doh++
		} else {
			local++
		}
	}
	// Paper: 8 browsers use Cloudflare/Google DoH, 7 the local stub.
	if doh != 8 || local != 7 {
		t.Errorf("doh=%d local=%d, want 8/7", doh, local)
	}
}

func TestListing1Captured(t *testing.T) {
	w, _ := study(t)
	body, _ := w.Suite.Listing1.Result()
	if body == "" {
		t.Fatal("no Opera OLeads request captured")
	}
	for _, needle := range []string{"adxsdk_for_opera_ofa_final", "operaId", "latitude", "com.opera.browser"} {
		if !strings.Contains(body, needle) {
			t.Errorf("Listing 1 body missing %q: %s", needle, body)
		}
	}
}

func TestUIDOnlySplitAblation(t *testing.T) {
	w, names := study(t)
	totals := analysis.UIDOnlySplit(w.DB, names)
	rows := w.Suite.Fig2.Rows()
	for _, r := range rows {
		if totals[r.Browser] != r.Engine+r.Native {
			t.Errorf("%s: uid-only %d != %d+%d", r.Browser, totals[r.Browser], r.Engine, r.Native)
		}
	}
}

func TestFig5UnitBinning(t *testing.T) {
	start := time.Unix(1683900000, 0).UTC()
	a := analysis.NewFig5Analyzer([]string{"X", "Y"}, start, 2*time.Minute, 10)
	for _, f := range []*capture.Flow{
		{Host: "a.example", Time: start.Add(5 * time.Second)},
		{Host: "a.example", Time: start.Add(15 * time.Second)},
		{Host: "b.example", Time: start.Add(95 * time.Second)},
		{Host: "b.example", Time: start.Add(700 * time.Second)}, // clamped to last bin
		{Host: "c.example", Time: start.Add(-time.Minute)},      // before the window
		// Less than one bin early: the offset truncates to bin 0, but
		// these are before the window too.
		{Host: "c.example", Time: start.Add(-500 * time.Millisecond)},
		{Host: "c.example", Time: start.Add(-5 * time.Second)},
		{Host: "c.example", Time: start.Add(-9 * time.Second)},
	} {
		f.Browser, f.Origin = "X", capture.OriginNative
		a.Observe(f)
	}
	a.Observe(&capture.Flow{Browser: "X", Origin: capture.OriginEngine, Host: "d.example", Time: start})
	series := a.Series()
	if len(series) != 2 || series[0].Browser != "X" || series[1].Total != 0 || len(series[1].Cumulative) != 12 {
		t.Fatalf("series = %+v", series)
	}
	s := series[0]
	if len(s.Cumulative) != 12 {
		t.Fatalf("bins = %d", len(s.Cumulative))
	}
	if s.Cumulative[0] != 1 || s.Cumulative[1] != 2 || s.Cumulative[9] != 3 || s.Cumulative[11] != 4 {
		t.Fatalf("cumulative = %v", s.Cumulative)
	}
	if s.Total != 4 || s.DestShares["a.example"] != 50 {
		t.Fatalf("total=%d shares=%v", s.Total, s.DestShares)
	}
}

func TestFig5LinearityScore(t *testing.T) {
	linear := analysis.Fig5Series{Cumulative: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	if got := linear.LinearityScore(); got < 0.8 {
		t.Fatalf("linear score = %.2f", got)
	}
	burst := analysis.Fig5Series{Cumulative: []int{8, 9, 9, 9, 10, 10, 10, 10, 10, 10}}
	if got := burst.LinearityScore(); got > 0.5 {
		t.Fatalf("burst score = %.2f", got)
	}
	if (analysis.Fig5Series{}).LinearityScore() != 0 {
		t.Fatal("empty series score")
	}
}

func TestHostlistRegression(t *testing.T) {
	// browser.events.data.msn.com must NOT be ad-related (it is Edge's
	// second-party telemetry); adfox.ru must be (Yandex's ad tech).
	l := hostlist.Bundled()
	if l.AdRelated("browser.events.data.msn.com") {
		t.Error("msn telemetry classified ad-related")
	}
	if !l.AdRelated("adfox.ru") {
		t.Error("adfox.ru not ad-related")
	}
}

func TestHistoryLeaksWithInjectedDifferential(t *testing.T) {
	w, _ := study(t)
	findings := analysis.CombineInjectedLeaks(w.Suite.LeakNative.Findings(), w.Suite.LeakEngine.Findings(), []string{"UC International"})
	hosts := map[string]map[string]bool{}
	for _, f := range findings {
		if hosts[f.Browser] == nil {
			hosts[f.Browser] = map[string]bool{}
		}
		hosts[f.Browser][f.Host] = true
	}
	// UC's beacon survives the differential filter…
	if !hosts["UC International"]["gjapi.ucweb.com"] {
		t.Errorf("UC beacon filtered out: %v", hosts["UC International"])
	}
	// …but website-caused analytics leaks (present for all browsers'
	// engines) do not.
	for h := range hosts["UC International"] {
		if strings.Contains(h, "google-analytics") || strings.Contains(h, "googletagmanager") {
			t.Errorf("website tracking attributed to UC: %s", h)
		}
	}
	// Native leaks are unaffected.
	if !hosts["Yandex"]["sba.yandex.net"] {
		t.Error("Yandex native leak missing")
	}
}

func TestCrossCheckVolumes(t *testing.T) {
	w, names := study(t)
	uidOf := map[string]int{}
	for _, n := range names {
		uidOf[n] = w.Browsers[n].UID()
	}
	rows := analysis.CrossCheckFrom(w.Suite.Fig4.ReqBytesTotal, w.Device.Accounting, uidOf)
	if len(rows) != len(names) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ProxyReqBytes == 0 || r.KernelTxBytes == 0 {
			t.Errorf("%s: empty volumes %+v", r.Browser, r)
		}
		if !r.Consistent {
			t.Errorf("%s: kernel tx %d < proxy req bytes %d", r.Browser, r.KernelTxBytes, r.ProxyReqBytes)
		}
		// TLS overhead should not explode the ratio beyond ~20x.
		if r.KernelTxBytes > 40*r.ProxyReqBytes {
			t.Errorf("%s: kernel/proxy ratio implausible: %d / %d", r.Browser, r.KernelTxBytes, r.ProxyReqBytes)
		}
	}
}

func TestTrackableIdentifiersInStudy(t *testing.T) {
	w, _ := study(t)
	ids := w.Suite.Trackable.IDs()
	var yandex, opera *analysis.TrackableID
	for i := range ids {
		id := &ids[i]
		if id.Browser == "Yandex" && id.Host == "api.browser.yandex.ru" && id.Param == "uuid" {
			yandex = id
		}
		if id.Browser == "Opera" && id.Param == "operaId" {
			opera = id
		}
	}
	if yandex == nil {
		t.Fatalf("Yandex uuid not mined: %+v", ids)
	}
	if len(yandex.Values) != 1 {
		t.Fatalf("Yandex uuid rotated within a session: %v", yandex.Values)
	}
	if yandex.Sightings < 20 {
		t.Fatalf("Yandex uuid sightings = %d, want one per visit", yandex.Sightings)
	}
	if opera == nil {
		t.Fatalf("Opera operaId not mined from POST bodies")
	}
	if len(opera.Values) != 1 || opera.Sightings < 20 {
		t.Fatalf("operaId = %+v", opera)
	}
}

// TestJSONLReanalysis round-trips the capture databases through JSONL
// and replays them through a fresh suite (the cmd/panoptes-report path):
// every analysis must recompute byte-identical to the live suite.
func TestJSONLReanalysis(t *testing.T) {
	w, names := study(t)
	var engBuf, natBuf bytes.Buffer
	if err := w.DB.Engine.WriteJSONL(&engBuf); err != nil {
		t.Fatal(err)
	}
	if err := w.DB.Native.WriteJSONL(&natBuf); err != nil {
		t.Fatal(err)
	}
	reloaded := capture.NewDB()
	if err := reloaded.Engine.ReadJSONL(&engBuf); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Native.ReadJSONL(&natBuf); err != nil {
		t.Fatal(err)
	}
	re := analysis.NewSuite(w.Hostlist, names)
	re.Replay(reloaded)
	for _, c := range []struct {
		name           string
		live, replayed any
	}{
		{"fig2", w.Suite.Fig2.Rows(), re.Fig2.Rows()},
		{"fig3", w.Suite.Fig3.Rows(), re.Fig3.Rows()},
		{"fig4", w.Suite.Fig4.Rows(), re.Fig4.Rows()},
		{"table2", w.Suite.PII.Matrix(), re.PII.Matrix()},
		{"leaks-native", w.Suite.LeakNative.Findings(), re.LeakNative.Findings()},
		{"leaks-engine", w.Suite.LeakEngine.Findings(), re.LeakEngine.Findings()},
		{"dns", w.Suite.DNS.Usage(), re.DNS.Usage()},
		{"trackable", w.Suite.Trackable.IDs(), re.Trackable.IDs()},
		{"listing1", w.Suite.Listing1.Finalize(), re.Listing1.Finalize()},
		{"transport", w.Suite.Transport.Rows(), re.Transport.Rows()},
	} {
		lj, err := json.Marshal(c.live)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(c.replayed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lj, rj) {
			t.Errorf("%s differs after JSONL round trip:\nlive     %s\nreplayed %s", c.name, lj, rj)
		}
	}
}

func TestSensitiveBreakdown(t *testing.T) {
	w, _ := study(t)
	// Category lookup from the world's dataset.
	cats := map[string]string{}
	var sensVisits []string
	for _, s := range w.Sites {
		if s.Category.Sensitive() {
			cats[s.URL()] = string(s.Category)
			sensVisits = append(sensVisits, s.URL())
		}
	}
	catOf := func(u string) string { return cats[u] }
	findings := analysis.CombineInjectedLeaks(w.Suite.LeakNative.Findings(), w.Suite.LeakEngine.Findings(), []string{"UC International"})
	rows := analysis.SensitiveBreakdown(findings, sensVisits,
		map[string]bool{"Yandex": true, "QQ": true, "UC International": true, "Brave": true}, catOf)

	byBrowser := map[string][]analysis.SensitiveRow{}
	for _, r := range rows {
		byBrowser[r.Browser] = append(byBrowser[r.Browser], r)
	}
	// The three leakers report every sensitive visit in every category.
	for _, b := range []string{"Yandex", "QQ", "UC International"} {
		if len(byBrowser[b]) != 4 {
			t.Fatalf("%s categories = %d, want 4", b, len(byBrowser[b]))
		}
		for _, r := range byBrowser[b] {
			if r.Leaked != r.Visits || r.Visits == 0 {
				t.Errorf("%s/%s leaked %d of %d (no local filtering expected)",
					r.Browser, r.Category, r.Leaked, r.Visits)
			}
		}
	}
	// Brave leaks none.
	for _, r := range byBrowser["Brave"] {
		if r.Leaked != 0 {
			t.Errorf("Brave leaked %d %s visits", r.Leaked, r.Category)
		}
	}
}

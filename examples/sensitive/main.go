// Sensitive: the §3.2 / §3.4 experiment — crawl only Curlie-style
// sensitive-category sites (Society, Religion, Sexuality, Health) with
// the three full-URL-leaking browsers, confirm no local filtering spares
// sensitive visits, and geolocate where those visits were reported:
// Russia (Yandex), China (QQ) and Canada (UC International), all outside
// the EU vantage point.
package main

import (
	"fmt"
	"log"

	"panoptes/internal/analysis"
	"panoptes/internal/core"
	"panoptes/internal/leak"
	"panoptes/internal/profiles"
	"panoptes/internal/websim"
)

func main() {
	selected := []*profiles.Profile{
		profiles.Yandex(), profiles.QQ(), profiles.UCInternational(),
	}
	world, err := core.NewWorld(core.WorldConfig{Sites: 16, Profiles: selected})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	// Keep only the sensitive half of the dataset.
	var sensitive []*websim.Site
	for _, s := range world.Sites {
		if s.Category.Sensitive() {
			sensitive = append(sensitive, s)
		}
	}
	fmt.Printf("crawling %d sensitive sites:\n", len(sensitive))
	for _, s := range sensitive {
		fmt.Printf("  [%-9s] %s\n", s.Category, s.Domain)
	}
	fmt.Println()

	if _, err := world.RunCampaign(core.CampaignConfig{Sites: sensitive}); err != nil {
		log.Fatal(err)
	}

	var injected []string
	for _, p := range selected {
		if p.InjectsScript {
			injected = append(injected, p.Name)
		}
	}
	findings := analysis.CombineInjectedLeaks(
		world.Suite.LeakNative.Findings(), world.Suite.LeakEngine.Findings(), injected)
	// Count full-URL leaks per browser: one per visit means no local
	// filtering of sensitive content.
	perBrowser := map[string]int{}
	for _, f := range findings {
		if f.Kind == leak.KindFullURL {
			perBrowser[f.Browser]++
		}
	}
	fmt.Println("full-URL leaks of sensitive visits (visits per browser:", len(sensitive), ")")
	for _, p := range selected {
		filtered := "NO local filtering — every sensitive visit reported"
		if perBrowser[p.Name] < len(sensitive) {
			filtered = fmt.Sprintf("only %d of %d visits reported", perBrowser[p.Name], len(sensitive))
		}
		fmt.Printf("  %-18s %3d leaks — %s\n", p.Name, perBrowser[p.Name], filtered)
	}

	// Per-category breakdown: religion, sexuality, health, society.
	cats := map[string]string{}
	var visitURLs []string
	for _, s := range sensitive {
		cats[s.URL()] = string(s.Category)
		visitURLs = append(visitURLs, s.URL())
	}
	browserSet := map[string]bool{}
	for _, p := range selected {
		browserSet[p.Name] = true
	}
	fmt.Println("\nper-category full-URL leak breakdown:")
	for _, r := range analysis.SensitiveBreakdown(findings, visitURLs, browserSet,
		func(u string) string { return cats[u] }) {
		fmt.Printf("  %-18s %-10s %d/%d visits leaked\n", r.Browser, r.Category, r.Leaked, r.Visits)
	}

	// §3.4: where did the reports go?
	geo, err := world.GeoDB()
	if err != nil {
		log.Fatal(err)
	}
	rows, err := analysis.GeoTransfers(findings, world.Inet, geo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninternational transfers (crawl vantage: Greece, EU):")
	for _, r := range rows {
		if r.Kind != leak.KindFullURL {
			continue
		}
		where := "OUTSIDE the EU"
		if r.InEU {
			where = "inside the EU"
		}
		fmt.Printf("  %-18s → %-26s %s (%s)\n", r.Browser, r.Host, r.Country, where)
	}
}

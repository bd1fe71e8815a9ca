// Quickstart: assemble the Panoptes testbed, crawl a handful of sites
// with one browser, and see the engine/native traffic split — the
// framework's core capability — in about a second.
package main

import (
	"fmt"
	"log"

	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/profiles"
)

func main() {
	// A small world: 10 sites (half popular, half sensitive) and the
	// Yandex browser, the paper's headline case.
	world, err := core.NewWorld(core.WorldConfig{
		Sites:    10,
		Profiles: []*profiles.Profile{profiles.Yandex()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	// Crawl. Per browser this resets the app via Appium, launches it,
	// clicks through the setup wizard, diverts its UID into the MITM
	// proxy, instruments it over CDP so every web-engine request is
	// tainted, and visits each site.
	res, err := world.RunCampaign(core.CampaignConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("visited %d pages (%d errors)\n\n", len(res.Visits), res.Errors)

	// The proxy's splitting addon filed every intercepted request into
	// one of two databases.
	fmt.Printf("engine (website-caused) requests: %d\n", world.DB.Engine.Len())
	fmt.Printf("native (browser-caused) requests: %d\n\n", world.DB.Native.Len())

	// What did the browser do natively?
	fmt.Println("native destinations:")
	for _, host := range world.DB.Native.Hosts() {
		h := host
		n := len(world.DB.Native.Filter(func(f *capture.Flow) bool { return f.Host == h }))
		fmt.Printf("  %-28s %d requests\n", host, n)
	}

	// And the headline finding: the browsing history leaves the device.
	// The world's analysis suite scanned each flow as it was filed.
	findings := world.Suite.LeakNative.Findings()
	fmt.Printf("\nhistory-leak findings: %d\n", len(findings))
	for _, f := range findings[:min(3, len(findings))] {
		fmt.Printf("  %s leaked %q to %s (%s, %s)\n",
			f.Browser, f.VisitURL, f.Host, f.Kind, f.Encoding)
	}
}

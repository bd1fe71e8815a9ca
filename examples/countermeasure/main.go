// Countermeasure: the defence the paper's related work calls for. Since
// the tracking happens in native browser code, in-page ad blockers are
// useless — but the device's network vantage point (here: the proxy) can
// veto native requests that target ad/tracker hosts, carry PII, or
// exfiltrate the browsing history, while leaving engine traffic intact.
// This runs the same crawl twice — unprotected and protected — and
// compares what the vendors received.
package main

import (
	"fmt"
	"log"

	"panoptes/internal/blocker"
	"panoptes/internal/core"
	"panoptes/internal/profiles"
)

func run(protect bool) {
	selected := []*profiles.Profile{
		profiles.Yandex(), profiles.Kiwi(), profiles.Whale(),
	}
	world, err := core.NewWorld(core.WorldConfig{Sites: 10, Profiles: selected})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	var b *blocker.Blocker
	if protect {
		b = blocker.New(blocker.DefaultPolicy(), world.Hostlist)
		world.Proxy.Use(b)
	}
	res, err := world.RunCampaign(core.CampaignConfig{})
	if err != nil {
		log.Fatal(err)
	}

	label := "UNPROTECTED"
	if protect {
		label = "PROTECTED (blocker active)"
	}
	fmt.Printf("== %s — %d visits, %d navigation errors\n", label, len(res.Visits), res.Errors)

	// What actually reached the trackers?
	sba := world.Vendors.Backend("sba.yandex.net").Count()
	fmt.Printf("   Yandex history reports delivered:   %d\n", sba)
	adHits := 0
	for _, host := range []string{"rubiconproject.com", "adnxs.com", "openx.net",
		"pubmatic.com", "bidswitch.net", "demdex.net"} {
		adHits += world.Hosting.Hits(host)
	}
	fmt.Printf("   Kiwi ad-network contacts delivered: %d (incl. engine embeds)\n", adHits)
	piiDelivered := 0
	for _, r := range world.Vendors.Backend("api-whale.naver.com").Requests() {
		if r.Path == "/device/profile" {
			piiDelivered++
		}
	}
	fmt.Printf("   Whale PII beacons delivered:        %d\n", piiDelivered)

	// Engine traffic must be unharmed either way.
	engineErrors := 0
	for _, f := range world.DB.Engine.All() {
		if f.Err != "" {
			engineErrors++
		}
	}
	fmt.Printf("   engine flows: %d (errors: %d)\n", world.DB.Engine.Len(), engineErrors)

	if protect {
		s := b.Stats()
		fmt.Printf("   blocker: %d/%d native requests vetoed (%v); %d engine flows passed\n",
			s.NativeBlocked, s.NativeExamined, s.ByReason, s.EnginePassed)
		remaining := world.Suite.LeakNative.Findings()
		delivered := 0
		for _, f := range remaining {
			for _, fl := range world.DB.Native.All() {
				if fl.ID == f.FlowID && fl.Err == "" {
					delivered++
				}
			}
		}
		fmt.Printf("   history leaks delivered despite blocking: %d\n", delivered)
	}
	fmt.Println()
}

func main() {
	run(false)
	run(true)
}

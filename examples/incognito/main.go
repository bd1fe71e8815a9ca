// Incognito: the §3.2 private-browsing experiment. The browsers that
// leak browsing history in normal mode (Edge to the Bing API, Opera to
// Sitecheck, UC International via its injected script) keep leaking in
// incognito mode; Yandex and QQ offer no incognito mode at all
// (footnote 5). The run compares normal vs incognito leak counts.
package main

import (
	"fmt"
	"log"

	"panoptes/internal/analysis"
	"panoptes/internal/core"
	"panoptes/internal/leak"
	"panoptes/internal/profiles"
)

func main() {
	selected := []*profiles.Profile{
		profiles.Edge(), profiles.Opera(), profiles.UCInternational(),
		profiles.Yandex(), profiles.QQ(),
	}
	world, err := core.NewWorld(core.WorldConfig{Sites: 12, Profiles: selected})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	var injected []string
	for _, p := range selected {
		if p.InjectsScript {
			injected = append(injected, p.Name)
		}
	}

	count := func(incognito bool) (map[string]int, []string) {
		world.DB.Reset()
		res, err := world.RunCampaign(core.CampaignConfig{Incognito: incognito})
		if err != nil {
			log.Fatal(err)
		}
		// DB.Reset also reset the world's analysis suite, so its
		// findings cover this campaign only.
		findings := analysis.CombineInjectedLeaks(
			world.Suite.LeakNative.Findings(), world.Suite.LeakEngine.Findings(), injected)
		out := map[string]int{}
		for _, f := range findings {
			if f.Incognito == incognito {
				out[f.Browser]++
			}
		}
		return out, res.Skipped
	}

	normal, _ := count(false)
	private, skipped := count(true)

	fmt.Println("history-leak requests per browser (12-site crawl):")
	fmt.Printf("%-18s %-8s %s\n", "Browser", "normal", "incognito")
	for _, p := range selected {
		inc := fmt.Sprint(private[p.Name])
		for _, s := range skipped {
			if s == p.Name {
				inc = "(no incognito mode)"
			}
		}
		fmt.Printf("%-18s %-8d %s\n", p.Name, normal[p.Name], inc)
	}

	fmt.Println("\nconclusion: incognito mode does not stop native history leaks —")
	fmt.Println("the gap between user expectation and reality the paper highlights.")
	_ = leak.KindFullURL
}

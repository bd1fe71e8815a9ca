// Idlephonehome: the §3.5 experiment — launch each browser, leave it
// untouched at its start page for ten (virtual) minutes, and plot the
// cumulative native "phone home" requests. Most browsers burst in the
// first minute (favicons, thumbnails, DNS for start-page tiles) and then
// plateau; Opera grows linearly because of its news feed. Dolphin sends
// 46% of its idle requests to the Facebook Graph API.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/core"
	"panoptes/internal/profiles"
	"panoptes/internal/report"
)

func main() {
	world, err := core.NewWorld(core.WorldConfig{Sites: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	const duration = 10 * time.Minute
	var series []analysis.Fig5Series
	for _, p := range profiles.All() {
		r, err := world.RunIdle(p.Name, duration)
		if err != nil {
			log.Fatalf("idle %s: %v", p.Name, err)
		}
		series = append(series, r.Series)
	}
	sort.Slice(series, func(i, j int) bool { return series[i].Total > series[j].Total })
	report.Fig5(os.Stdout, series)

	// Call out the paper's §3.5 destination findings explicitly.
	fmt.Println()
	for _, check := range []struct{ browser, dest string }{
		{"Dolphin", "facebook.com"},
		{"Mint", "facebook.com"},
		{"CocCoc", "adjust.com"},
		{"Opera", "doubleclick.net"},
	} {
		for _, s := range series {
			if s.Browser != check.browser {
				continue
			}
			fmt.Printf("%s sends %.1f%% of its idle native requests to %s\n",
				check.browser, s.DestShares[check.dest], check.dest)
		}
	}
}

// Fullstudy: the paper's main crawl — all 15 browsers over a site list —
// followed by Figures 2, 3 and 4 and Table 2. With the default 60 sites
// this takes well under a minute; pass a number to scale up
// (`go run ./examples/fullstudy 200`).
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"panoptes/internal/core"
	"panoptes/internal/profiles"
	"panoptes/internal/report"
)

func main() {
	sites := 60
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil {
			log.Fatalf("usage: fullstudy [num-sites]")
		}
		sites = n
	}

	world, err := core.NewWorld(core.WorldConfig{Sites: sites})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	var names []string
	for _, p := range profiles.All() {
		names = append(names, p.Name)
	}

	start := time.Now()
	res, err := world.RunCampaign(core.CampaignConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d visits across %d browsers in %v\n\n",
		len(res.Visits), len(names), time.Since(start).Round(time.Millisecond))

	// The world's analysis suite folded every figure in on the commit
	// tap while the crawl ran.
	suite := world.Suite
	report.Fig2(os.Stdout, suite.Fig2.Rows())
	fmt.Println()
	report.Fig3(os.Stdout, suite.Fig3.Rows())
	fmt.Println()
	report.Fig4(os.Stdout, suite.Fig4.Rows())
	fmt.Println()
	report.Table2(os.Stdout, suite.PII.Matrix(), names)
	fmt.Printf("\n%d individual PII findings across all native flows\n", len(suite.PII.Findings()))

	body, _ := suite.Listing1.Result()
	fmt.Println()
	report.Listing1(os.Stdout, body)
}

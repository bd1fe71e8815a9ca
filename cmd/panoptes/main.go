// Command panoptes runs the full reproduction study: it assembles the
// simulated testbed (virtual internet, vendor backends, generated web,
// Android device, transparent MITM proxy), crawls the site list with the
// selected browsers under taint instrumentation, optionally runs the
// idle experiment, and prints every figure and table of the paper.
//
// Usage:
//
//	panoptes -sites 200 -all
//	panoptes -browsers Yandex,QQ -fig2 -leaks
//	panoptes -fig5 -idle 10m
//	panoptes -population 1000000 -duration 5m
//	panoptes -table1
//	panoptes -all -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/blocker"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/fabric"
	"panoptes/internal/faultsim"
	"panoptes/internal/leak"
	"panoptes/internal/obs"
	"panoptes/internal/popsim"
	"panoptes/internal/profiles"
	"panoptes/internal/report"
	"panoptes/internal/sink"
)

func main() {
	var (
		sites     = flag.Int("sites", 200, "crawl-list size (paper: 1000; half Tranco, half sensitive)")
		browsers  = flag.String("browsers", "", "comma-separated browser names (default: all 15)")
		incognito = flag.Bool("incognito", false, "crawl in incognito mode")
		parallel  = flag.Int("parallel", 0, "browsers crawled concurrently, or with -population the goroutines that synthesize and commit visits (0 = GOMAXPROCS, 1 = sequential)")
		idleDur   = flag.Duration("idle", 10*time.Minute, "idle-experiment duration (virtual time)")
		outDir    = flag.String("out", "", "directory for JSONL flow databases and CSV outputs")
		harOut    = flag.Bool("har", false, "with -out: also export HAR 1.2 archives")
		retain    = flag.String("retain", "all", "flow retention: all, native (drop engine flows after streaming analysis) or none (drop all; with -out, dropped flows spill to JSONL as they commit)")
		block     = flag.Bool("block", false, "install the countermeasure blocker (internal/blocker)")

		sinkSpecs  = flag.String("sink", "", "export sinks, comma-separated: http:URL (NDJSON bulk POST), file:DIR (rotating gzip JSONL), mem (in-memory smoke)")
		sinkBatch  = flag.Int("sink-batch", 0, "export batch size (default 64)")
		sinkQueue  = flag.Int("sink-queue", 0, "in-flight export batches per sink (default 8)")
		sinkPolicy = flag.String("sink-policy", "drop", "full export queue policy: drop (shed batches) or block (backpressure the crawl)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		waterfall   = flag.Int("waterfall", 0, "print an ASCII waterfall for the first N page-visit span trees")

		population = flag.Int("population", 0, "simulate N users on the event-driven session engine instead of crawling with browser emulators (see -duration, -seed)")
		popDur     = flag.Duration("duration", 5*time.Minute, "virtual duration of the -population run")
		popSeed    = flag.Int64("seed", 42, "campaign seed of the -population session model; equal seeds reproduce runs byte-for-byte")

		faultRate  = flag.Float64("faults", 0, "fault-injection rate per (browser, site, attempt), 0..1 over every fault kind")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the deterministic fault plan (with -faults)")
		checkpoint = flag.String("checkpoint", "", "write a resumable campaign checkpoint (JSON) to this path")
		resumeFrom = flag.String("resume", "", "resume the campaign from a checkpoint written by -checkpoint")

		workersN     = flag.Int("workers", 0, "run the campaign on a lease-based worker fabric with this many worker planes (0 = single-process)")
		leaseVisits  = flag.Int("lease-visits", 0, "sites per fabric lease (with -workers; default 4)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "virtual-clock lease deadline before a silent worker's lease is reclaimed (with -workers; default 2m)")
		fabricMode   = flag.String("fabric-mode", "failover", "worker transport spread: failover or roundrobin (with -workers)")

		transportsF = flag.String("transports", "", "comma-separated data-plane transports to dissect: h1,h2,ws,doh (default: all; h1 always on)")
		blockH3     = flag.Bool("block-h3", true, "install the UDP/443 drop rule forcing QUIC-capable browsers onto interceptable TCP (false = ablation: QUIC traffic bypasses capture)")

		all      = flag.Bool("all", false, "produce every figure and table")
		table1   = flag.Bool("table1", false, "Table 1: browser dataset")
		fig2     = flag.Bool("fig2", false, "Figure 2: engine vs native request counts")
		fig3     = flag.Bool("fig3", false, "Figure 3: ad-related native destinations")
		fig4     = flag.Bool("fig4", false, "Figure 4: outgoing byte volumes")
		fig5     = flag.Bool("fig5", false, "Figure 5: idle phone-home timelines")
		table2   = flag.Bool("table2", false, "Table 2: PII leak matrix")
		leaksF   = flag.Bool("leaks", false, "§3.2: browsing-history leaks")
		geoF     = flag.Bool("geo", false, "§3.4: international transfers")
		dnsF     = flag.Bool("dns", false, "§3.2: DoH vs local resolver split")
		listing1 = flag.Bool("listing1", false, "Listing 1: Opera OLeads ad request")
		crossF   = flag.Bool("crosscheck", false, "validate proxy byte accounting against kernel eBPF counters")
	)
	flag.Parse()

	var retainMode capture.RetainMode
	switch *retain {
	case "all":
		retainMode = capture.RetainAll
	case "native":
		retainMode = capture.RetainNative
	case "none":
		retainMode = capture.RetainNone
	default:
		fatalf("unknown -retain mode %q (all, native, none)", *retain)
	}
	if retainMode != capture.RetainAll && *checkpoint != "" {
		fatalf("-checkpoint requires -retain=all (checkpoints snapshot the flow databases)")
	}
	if *population > 0 {
		if *workersN > 0 || *checkpoint != "" || *resumeFrom != "" || *block {
			fatalf("-population is incompatible with -workers, -checkpoint, -resume and -block (the session engine bypasses the proxy and the lease fabric)")
		}
		// A million-user run only stays in memory with retention off;
		// default there unless the operator chose a mode explicitly.
		retainExplicit := false
		flag.Visit(func(f *flag.Flag) { retainExplicit = retainExplicit || f.Name == "retain" })
		if !retainExplicit {
			retainMode = capture.RetainNone
		}
	}
	if *workersN > 0 {
		if *checkpoint != "" || *resumeFrom != "" {
			fatalf("-workers is incompatible with -checkpoint/-resume: the fabric's leases already partition and resume the campaign internally")
		}
		if *block {
			fatalf("-workers is incompatible with -block: the blocker hooks the coordinator proxy, but fabric visits run on worker planes")
		}
	}
	fabricTransport := fabric.ModeFailover
	if *workersN > 0 {
		m, err := fabric.ParseMode(*fabricMode)
		if err != nil {
			fatalf("%v", err)
		}
		fabricTransport = m
	}

	var transportList []string
	if *transportsF != "" {
		known := map[string]bool{
			capture.TransportH1: true, capture.TransportH2: true,
			capture.TransportWS: true, capture.TransportDoH: true,
		}
		for _, t := range strings.Split(*transportsF, ",") {
			t = strings.TrimSpace(strings.ToLower(t))
			if !known[t] {
				fatalf("unknown transport %q (known: h1, h2, ws, doh)", t)
			}
			transportList = append(transportList, t)
		}
	}

	if *all {
		*table1, *fig2, *fig3, *fig4, *fig5 = true, true, true, true, true
		*table2, *leaksF, *geoF, *dnsF, *listing1 = true, true, true, true, true
	}
	if *all {
		*crossF = true
	}
	if *population > 0 && !(*fig2 || *fig3 || *fig4 || *fig5 || *table2 || *leaksF || *geoF || *dnsF || *listing1) {
		// The population deliverables: the Table 2 matrix and the
		// phone-home timeline over the simulated population.
		*table2, *fig5 = true, true
	}
	if !(*table1 || *fig2 || *fig3 || *fig4 || *fig5 || *table2 || *leaksF || *geoF || *dnsF || *listing1 || *crossF) {
		fmt.Fprintln(os.Stderr, "panoptes: nothing selected; pass -all or specific -figN/-tableN flags")
		flag.Usage()
		os.Exit(2)
	}

	selected := profiles.All()
	if *browsers != "" {
		selected = nil
		for _, name := range strings.Split(*browsers, ",") {
			p := profiles.ByName(strings.TrimSpace(name))
			if p == nil {
				fatalf("unknown browser %q (known: %s)", name, knownNames())
			}
			selected = append(selected, p)
		}
	}
	names := make([]string, len(selected))
	for i, p := range selected {
		names[i] = p.Name
	}

	if *table1 {
		printTable1(selected)
		fmt.Println()
	}

	needCrawl := *fig2 || *fig3 || *fig4 || *table2 || *leaksF || *geoF || *dnsF || *listing1 || *crossF
	if !needCrawl && !*fig5 {
		return
	}

	if *metricsAddr != "" {
		obs.ServeMetrics(*metricsAddr, obs.Default, func(err error) {
			fmt.Fprintf(os.Stderr, "panoptes: metrics server: %v\n", err)
		})
		fmt.Fprintf(os.Stderr, "panoptes: observability on http://%s (/metrics, /debug/vars, /debug/pprof)\n", *metricsAddr)
	}

	sinks, err := sink.ParseSpecs(*sinkSpecs)
	if err != nil {
		fatalf("%v", err)
	}
	policy, err := sink.ParsePolicy(*sinkPolicy)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Fprintf(os.Stderr, "panoptes: assembling testbed (%d sites, %d browsers)...\n", *sites, len(selected))
	w, err := core.NewWorld(core.WorldConfig{
		Sites: *sites, Profiles: selected, Retain: retainMode,
		Sinks:          sinks,
		SinkConfig:     sink.Config{BatchSize: *sinkBatch, Queue: *sinkQueue, Policy: policy},
		Transports:     transportList,
		DisableH3Block: !*blockH3,
	})
	if err != nil {
		fatalf("world: %v", err)
	}
	defer w.Close()
	if len(sinks) > 0 {
		fmt.Fprintf(os.Stderr, "panoptes: export plane wired (%d sinks, policy=%s)\n", len(sinks), policy)
	}

	// With retention off, committed flows stream through the analyzers
	// and are then dropped; given -out they spill to the JSONL databases
	// incrementally instead of being exported at the end.
	var spillFiles []*os.File
	spillTo := func(store *capture.Store, name string) {
		f := createFile(*outDir, name)
		store.SetSpill(f)
		spillFiles = append(spillFiles, f)
	}
	if *outDir != "" && !w.DB.Engine.Retained() {
		spillTo(w.DB.Engine, "engine.jsonl")
	}
	if *outDir != "" && !w.DB.Native.Retained() {
		spillTo(w.DB.Native, "native.jsonl")
	}
	defer func() {
		for _, f := range spillFiles {
			f.Close()
		}
	}()

	var blk *blocker.Blocker
	if *block {
		blk = blocker.New(blocker.DefaultPolicy(), w.Hostlist)
		w.Proxy.Use(blk)
	}

	var inj *faultsim.Injector
	if *faultRate > 0 {
		inj = faultsim.New(faultsim.Plan{Seed: *faultSeed, Rates: faultsim.UniformRates(*faultRate)})
		w.InstallFaults(inj)
		fmt.Fprintf(os.Stderr, "panoptes: fault injection armed (rate=%.2g seed=%d)\n", *faultRate, *faultSeed)
	}

	// Population mode replaces the emulator crawl: the event-driven
	// session engine synthesizes the population's traffic straight into
	// the same capture DB and streaming analyses.
	var pop *popsim.Engine
	if *population > 0 {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "panoptes: population run: %d users × %v virtual over %d sites (seed=%d)...\n",
			*population, *popDur, len(w.Sites), *popSeed)
		e, err := w.RunPopulation(core.PopulationConfig{
			Population:  *population,
			Duration:    *popDur,
			Seed:        *popSeed,
			Parallelism: workerCount(*parallel),
		})
		if err != nil {
			fatalf("population: %v", err)
		}
		pop = e
		s := e.Stats()
		fmt.Fprintf(os.Stderr, "panoptes: population: %d users arrived (%d churned), %d sessions, %d visits, %d flows, %d session starts throttled in %v wall\n",
			s.ArrivedUsers, s.ChurnedUsers, s.Sessions, s.Visits, s.FlowsCommitted,
			s.Throttled, time.Since(start).Round(time.Millisecond))
	}

	if needCrawl && pop == nil {
		var res *core.CampaignResult
		start := time.Now()
		if *workersN > 0 {
			// Distributed path: the coordinator world merges; fresh worker
			// planes (same deterministic site dataset, full retention so the
			// lease checkpoints can carry session state) do the crawling.
			fmt.Fprintf(os.Stderr, "panoptes: fabric crawl of %d sites × %d browsers (workers=%d, mode=%s)...\n",
				len(w.Sites), len(selected), *workersN, fabricTransport)
			fres, err := fabric.Run(fabric.Config{
				World: w,
				NewWorkerWorld: func() (*core.World, error) {
					ww, err := core.NewWorld(core.WorldConfig{
						Sites: *sites, Profiles: selected,
						Transports: transportList, DisableH3Block: !*blockH3,
					})
					if err != nil {
						return nil, err
					}
					if inj != nil {
						ww.InstallFaults(inj)
					}
					return ww, nil
				},
				Workers:      *workersN,
				LeaseVisits:  *leaseVisits,
				LeaseTimeout: *leaseTimeout,
				Mode:         fabricTransport,
				Campaign:     core.CampaignConfig{Incognito: *incognito},
				Faults:       inj,
			})
			if err != nil {
				fatalf("fabric: %v", err)
			}
			res = fres.Campaign
			st := fres.Stats
			fmt.Fprintf(os.Stderr, "panoptes: fabric: %d leases issued, %d reclaimed, %d duplicate completions dropped; %d worker restarts; %d flows merged, %d quarantined\n",
				st.LeasesIssued, st.LeasesReclaimed, st.DuplicateDrops, st.WorkerRestarts, st.FlowsMerged, st.FlowsQuarantined)
		} else {
			workers := workerCount(*parallel)
			ccfg := core.CampaignConfig{
				Incognito:   *incognito,
				Parallelism: *parallel,
				Checkpoint:  *checkpoint != "",
			}
			if *resumeFrom != "" {
				cp, err := core.ReadCheckpoint(*resumeFrom)
				if err != nil {
					fatalf("%v", err)
				}
				ccfg.Resume = cp
				ccfg.Incognito = cp.Incognito
				fmt.Fprintf(os.Stderr, "panoptes: resuming campaign from %s (%d browsers checkpointed)\n",
					*resumeFrom, len(cp.Browsers))
			}
			fmt.Fprintf(os.Stderr, "panoptes: crawling %d sites × %d browsers (incognito=%v, parallel=%d)...\n",
				len(w.Sites), len(selected), ccfg.Incognito, workers)
			r, err := w.RunCampaign(ccfg)
			if err != nil {
				fatalf("campaign: %v", err)
			}
			res = r
		}
		fmt.Fprintf(os.Stderr, "panoptes: %d visits (%d errors, %d skipped) in %v wall / %v virtual\n",
			len(res.Visits), res.Errors, len(res.Skipped), time.Since(start).Round(time.Millisecond),
			w.Clock.Since(startVirtual()))
		// Resilience exit report: what was injected, what the retry layer
		// absorbed, and what degraded into error records.
		if inj != nil || res.Retries > 0 || res.Degraded > 0 {
			fmt.Fprintf(os.Stderr, "panoptes: resilience: %d faults injected (%s); %d attempts retried; %d visits degraded\n",
				inj.Total(), inj.CountsString(), res.Retries, res.Degraded)
		}
		if *checkpoint != "" && res.Checkpoint != nil {
			if err := res.Checkpoint.WriteFile(*checkpoint); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "panoptes: checkpoint written to %s\n", *checkpoint)
		}
	}

	// Every figure and table below is read from the streaming suite —
	// the analyzers folded each flow in as it committed, so rendering no
	// longer touches the flow databases and works under -retain=none.
	if *fig2 {
		rows := w.Suite.Fig2.Rows()
		report.Fig2(os.Stdout, rows)
		fmt.Println()
		if *outDir != "" {
			writeFile(*outDir, "fig2.csv", func(f *os.File) { report.CSVFig2(f, rows) })
		}
	}
	if *fig3 {
		report.Fig3(os.Stdout, w.Suite.Fig3.Rows())
		fmt.Println()
	}
	if *fig4 {
		rows := w.Suite.Fig4.Rows()
		report.Fig4(os.Stdout, rows)
		fmt.Println()
		if *outDir != "" {
			writeFile(*outDir, "fig4.csv", func(f *os.File) { report.CSVFig4(f, rows) })
		}
	}
	if *table2 {
		report.Table2(os.Stdout, w.Suite.PII.Matrix(), names)
		fmt.Println()
		report.Transports(os.Stdout, w.Suite.Transport.Rows())
		fmt.Println()
	}
	var findings []leak.Finding
	if *leaksF || *geoF {
		var injected []string
		for _, p := range selected {
			if p.InjectsScript {
				injected = append(injected, p.Name)
			}
		}
		findings = analysis.CombineInjectedLeaks(
			w.Suite.LeakNative.Findings(), w.Suite.LeakEngine.Findings(), injected)
	}
	if *leaksF {
		report.Leaks(os.Stdout, leak.Summarise(findings))
		fmt.Println()
		report.TrackableIDs(os.Stdout, w.Suite.Trackable.IDs())
		fmt.Println()
		// Per-category sensitive breakdown over the crawled dataset.
		cats := map[string]string{}
		var sensVisits []string
		for _, s := range w.Sites {
			if s.Category.Sensitive() {
				cats[s.URL()] = string(s.Category)
				sensVisits = append(sensVisits, s.URL())
			}
		}
		browserSet := map[string]bool{}
		for _, n := range names {
			browserSet[n] = true
		}
		report.Sensitive(os.Stdout, analysis.SensitiveBreakdown(findings, sensVisits, browserSet,
			func(u string) string { return cats[u] }))
		fmt.Println()
	}
	if *geoF {
		geo, err := w.GeoDB()
		if err != nil {
			fatalf("geoip: %v", err)
		}
		rows, err := analysis.GeoTransfers(findings, w.Inet, geo)
		if err != nil {
			fatalf("geo transfers: %v", err)
		}
		report.Geo(os.Stdout, rows)
		fmt.Println()
	}
	if *dnsF {
		report.DNS(os.Stdout, w.Suite.DNS.Usage(), names)
		fmt.Println()
	}
	if *crossF {
		uidOf := map[string]int{}
		for name, b := range w.Browsers {
			uidOf[name] = b.UID()
		}
		report.VolumeCrossCheck(os.Stdout, analysis.CrossCheckFrom(w.Suite.Fig4.ReqBytesTotal, w.Device.Accounting, uidOf))
		fmt.Println()
	}
	if *listing1 {
		body, _ := w.Suite.Listing1.Result()
		report.Listing1(os.Stdout, body)
		fmt.Println()
	}

	if *fig5 {
		var series []analysis.Fig5Series
		if pop != nil {
			// Population mode: the phone-home timeline was folded in on
			// the commit tap during the run; no idle experiment needed.
			series = pop.Curve().Series()
			if *outDir != "" {
				for _, s := range series {
					s := s
					fn := fmt.Sprintf("population_curve_%s.csv", strings.ReplaceAll(strings.ToLower(s.Browser), " ", "_"))
					writeFile(*outDir, fn, func(f *os.File) { report.CSVFig5(f, s) })
				}
			}
		} else {
			fmt.Fprintf(os.Stderr, "panoptes: idle experiment (%v virtual) ...\n", *idleDur)
			for _, name := range names {
				r, err := w.RunIdle(name, *idleDur)
				if err != nil {
					fatalf("idle %s: %v", name, err)
				}
				s := r.Series
				series = append(series, s)
				if *outDir != "" {
					fn := fmt.Sprintf("fig5_%s.csv", strings.ReplaceAll(strings.ToLower(name), " ", "_"))
					writeFile(*outDir, fn, func(f *os.File) { report.CSVFig5(f, s) })
				}
			}
		}
		sort.Slice(series, func(i, j int) bool { return series[i].Total > series[j].Total })
		report.Fig5(os.Stdout, series)
		fmt.Println()
	}

	if blk != nil {
		s := blk.Stats()
		fmt.Printf("countermeasure: vetoed %d of %d native requests (%v); %d engine flows untouched\n",
			s.NativeBlocked, s.NativeExamined, s.ByReason, s.EnginePassed)
	}

	// Export plane epilogue: analyzer deltas go out once the campaign's
	// results are final, then the queues drain before the summary reads
	// the sink counters.
	if w.Exporter != nil {
		if err := w.Exporter.PublishDeltas(w.Pipeline.Results()); err != nil {
			fmt.Fprintf(os.Stderr, "panoptes: delta export: %v\n", err)
		}
		w.Exporter.Drain()
	}

	// End-of-campaign observability: the headline numbers (cert-cache hit
	// rate, p50/p95 visit latency) plus the full metric-family table.
	if needCrawl || *fig5 {
		report.CampaignObsSummary(os.Stdout, obs.Default)
		fmt.Println()
		report.PipelineObsSummary(os.Stdout, obs.Default)
		fmt.Println()
		if pop != nil {
			report.PopulationObsSummary(os.Stdout, obs.Default)
			fmt.Println()
		}
		if w.Exporter != nil {
			report.SinkObsSummary(os.Stdout, obs.Default)
			fmt.Println()
		}
		if *workersN > 0 {
			report.FabricObsSummary(os.Stdout, obs.Default)
			fmt.Println()
		}
		report.MetricsSummary(os.Stdout, obs.Default)
		fmt.Println()
	}
	if *waterfall > 0 {
		trees := w.Trace.Roots()
		if len(trees) > *waterfall {
			trees = trees[:*waterfall]
		}
		report.Waterfall(os.Stdout, trees)
		fmt.Println()
	}

	if *outDir != "" && needCrawl {
		// Unretained stores were spilled incrementally above; only the
		// retained ones have anything left to export.
		if w.DB.Engine.Retained() {
			writeFile(*outDir, "engine.jsonl", func(f *os.File) { w.DB.Engine.WriteJSONL(f) })
		}
		if w.DB.Native.Retained() {
			writeFile(*outDir, "native.jsonl", func(f *os.File) { w.DB.Native.WriteJSONL(f) })
		}
		writeFile(*outDir, "trace.jsonl", func(f *os.File) { w.Trace.WriteJSONL(f) })
		if *harOut {
			if !w.DB.Engine.Retained() || !w.DB.Native.Retained() {
				fmt.Fprintf(os.Stderr, "panoptes: skipping HAR export for unretained flow databases (-retain=%s)\n", *retain)
			}
			if w.DB.Engine.Retained() {
				writeFile(*outDir, "engine.har", func(f *os.File) { w.DB.Engine.WriteHAR(f) })
			}
			if w.DB.Native.Retained() {
				writeFile(*outDir, "native.har", func(f *os.File) { w.DB.Native.WriteHAR(f) })
			}
		}
		for _, f := range spillFiles {
			if err := f.Sync(); err != nil {
				fatalf("sync %s: %v", f.Name(), err)
			}
		}
		if err := w.DB.Engine.SpillErr(); err != nil {
			fatalf("engine spill: %v", err)
		}
		if err := w.DB.Native.SpillErr(); err != nil {
			fatalf("native spill: %v", err)
		}
		fmt.Fprintf(os.Stderr, "panoptes: flow databases written to %s\n", *outDir)
	}
}

func printTable1(selected []*profiles.Profile) {
	fmt.Println("Table 1 — mobile browser dataset")
	fmt.Printf("%-18s %-18s %-8s %-14s %s\n", "Browser", "Version", "CDP", "DNS", "Package")
	for _, p := range selected {
		cdp := "yes"
		if p.Instrumentation == profiles.InstrumentFrida {
			cdp = "frida"
		}
		fmt.Printf("%-18s %-18s %-8s %-14s %s\n", p.Name, p.Version, cdp, p.DNS, p.Package)
	}
}

func knownNames() string {
	var names []string
	for _, p := range profiles.All() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func writeFile(dir, name string, write func(*os.File)) {
	f := createFile(dir, name)
	defer f.Close()
	write(f)
}

func createFile(dir, name string) *os.File {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatalf("create %s: %v", name, err)
	}
	return f
}

// workerCount resolves -parallel: 0 (the default) or less means one
// worker per GOMAXPROCS.
func workerCount(parallel int) int {
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

func startVirtual() time.Time {
	return time.Date(2023, time.May, 12, 9, 0, 0, 0, time.UTC)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "panoptes: "+format+"\n", args...)
	os.Exit(1)
}

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/fabric"
	"panoptes/internal/faultsim"
	"panoptes/internal/pipeline"
	"panoptes/internal/popsim"
	"panoptes/internal/sink"
)

// setupRepeats is how many times a rep assembles its set-up: once for
// the measured plan, then again after the plan with each copy torn down
// at once, so setup_s is a median and not a single reading.
const setupRepeats = 5

// Sample is one rep's end-to-end readings.
type Sample struct {
	Traced   bool          `json:"traced,omitempty"`
	Setup    time.Duration `json:"setup_ns"`   // world assembly, median of setupRepeats
	Elapsed  time.Duration `json:"elapsed_ns"` // timed window
	CPU      time.Duration `json:"cpu_ns"`     // user+system over the window
	PeakRSS  float64       `json:"peak_rss_mb"`
	Visits   int           `json:"visits"` // planned (population: synthesized)
	Failed   int           `json:"failed"` // error records, or all visits of a rep that failed its check
	Sessions int           `json:"sessions,omitempty"`
	Flows    int64         `json:"flows"` // committed history
	// Ref is the reference computation's time around the rep (the
	// geometric mean of the readings just before and just after it),
	// which the run measures in its own process.
	Ref time.Duration `json:"ref_ns"`

	wall time.Duration // the whole rep as the run saw it
}

// RepResult is what one rep reports to its run.
type RepResult struct {
	Sample   Sample   `json:"sample"`
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
	Layers   *Layers  `json:"layers,omitempty"` // traced reps only
}

// rep is one repetition in progress.
type rep struct {
	opts   Options
	index  int
	tr     *tracer // nil when untraced
	res    RepResult
	setups []time.Duration
}

func (c *rep) problem(format string, args ...any) {
	c.res.Problems = append(c.res.Problems, fmt.Sprintf(format, args...))
}

// setupFunc assembles a workload's worlds and returns their teardown.
type setupFunc func() (teardown func(), err error)

// RunRep performs rep i of a run in this process: assemble the
// workload's worlds, run its plan in the timed window, check the
// output, tear down, then time the set-up again. opts.Trace makes it a
// traced rep, which also writes cpu-<workload>.pprof to opts.Artifacts
// when that is set.
func RunRep(opts Options, i int) (*RepResult, error) {
	fn, ok := map[string]func(*rep) (setupFunc, error){
		"crawl":       crawlRep,
		"crawl-chaos": crawlRep,
		"fabric-wan":  fabricRep,
		"population":  populationRep,
	}[opts.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", opts.Workload, Workloads)
	}
	c := &rep{opts: opts, index: i}
	var repSpan *span
	if opts.Trace {
		c.tr = newTracer()
		if opts.Artifacts != "" {
			f, err := os.Create(filepath.Join(opts.Artifacts, "cpu-"+opts.Workload+".pprof"))
			if err != nil {
				return nil, fmt.Errorf("bench: cpu profile: %w", err)
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return nil, fmt.Errorf("bench: cpu profile: %w", err)
			}
			defer pprof.StopCPUProfile()
		}
		repSpan = c.tr.start("rep", 0, "workload", opts.Workload, "index", strconv.Itoa(i))
		c.tr.repSpan = repSpan.ID
	}
	setup, err := fn(c)
	if err != nil {
		return nil, err
	}
	if err := c.repeatSetup(setup); err != nil {
		return nil, err
	}
	c.res.Sample.Traced = c.tr != nil
	if c.tr != nil {
		c.tr.end(repSpan)
		c.res.Layers = c.tr.layers()
	}
	return &c.res, nil
}

// buildWorld assembles one world, timing it for core.new_world_ms when
// traced.
func (c *rep) buildWorld(cfg core.WorldConfig, role string) (*core.World, error) {
	if c.tr == nil {
		return core.NewWorld(cfg)
	}
	s := c.tr.start("world.build", c.tr.repSpan, "role", role)
	w, err := core.NewWorld(cfg)
	c.tr.built(c.tr.end(s))
	return w, err
}

// assemble runs one set-up and records its time.
func (c *rep) assemble(setup setupFunc) (func(), error) {
	start := time.Now()
	teardown, err := setup()
	if err != nil {
		return nil, err
	}
	c.setups = append(c.setups, time.Since(start))
	return teardown, nil
}

// repeatSetup assembles and tears down the set-up until it has been
// timed setupRepeats times and stores the median as the rep's set-up
// time. It runs once the measured plan is torn down, so the extra copies
// touch neither the plan's timings nor its peak RSS.
func (c *rep) repeatSetup(setup setupFunc) error {
	for len(c.setups) < setupRepeats {
		teardown, err := c.assemble(setup)
		if err != nil {
			return err
		}
		teardown()
	}
	secs := make([]float64, len(c.setups))
	for i, d := range c.setups {
		secs[i] = float64(d)
	}
	c.res.Sample.Setup = time.Duration(medianOf(secs))
	return nil
}

// timed runs f as the rep's measured window, with CPU and (traced)
// runtime counters around it, and reads the peak RSS when it ends, before
// the output checks allocate.
func (c *rep) timed(name string, f func() error) error {
	var ms0 runtime.MemStats
	var s *span
	if c.tr != nil {
		runtime.ReadMemStats(&ms0)
		s = c.tr.start(name, c.tr.repSpan)
	}
	cpu0 := cpuTime()
	start := time.Now()
	err := f()
	c.res.Sample.Elapsed = time.Since(start)
	c.res.Sample.CPU = cpuTime() - cpu0
	if c.tr != nil {
		c.tr.end(s)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		c.tr.count("allocs", int64(ms1.Mallocs-ms0.Mallocs))
		c.tr.count("gc_cycles", int64(ms1.NumGC-ms0.NumGC))
		c.tr.count("gc_pause_ns", int64(ms1.PauseTotalNs-ms0.PauseTotalNs))
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	c.res.Sample.PeakRSS = rss
	return err
}

// finish digests the rep's primary world and, when traced, totals its
// counters.
func (c *rep) finish(w *core.World) {
	if c.tr != nil {
		s := &c.res.Sample
		c.tr.count("visits", int64(s.Visits))
		c.tr.count("flows", s.Flows)
		c.tr.count("seen", w.DB.Engine.Seen()+w.DB.Native.Seen())
		c.tr.count("resident", resident(w))
		c.tr.countWorlds()
	}
	d, err := Digest(w)
	if err != nil {
		c.problem("%v", err)
		return
	}
	c.res.Digest = d
}

// committed is a world's committed history: the transport analyzer's
// per-browser totals, which retracted attempts never reach.
func committed(w *core.World) int64 {
	var n int64
	for _, row := range w.Suite.Transport.Rows() {
		n += int64(row.Total)
	}
	return n
}

func resident(w *core.World) int64 {
	return int64(w.DB.Engine.Len() + w.DB.Native.Len() + w.DB.Engine.Pending() + w.DB.Native.Pending())
}

// chaosPlan is crawl-chaos's fault plan: every armed kind whose failure
// does not wait on a wall-clock timer, at 10%. CDPStall, SlowResponse and
// ConnTimeout are left out — they would measure sleeps, not the program.
// Faults reach attempts 1 and 2 only (faultsim's default), so with three
// attempts every visit commits and the analyses match the clean crawl.
func chaosPlan(seed int64) faultsim.Plan {
	rates := make(map[faultsim.Kind]float64)
	for _, k := range []faultsim.Kind{
		faultsim.DNSNXDomain, faultsim.ConnRefused, faultsim.TLSHandshake, faultsim.PinReject,
		faultsim.ReadTimeout, faultsim.StreamReset, faultsim.HTTP5xx, faultsim.BrowserCrash,
	} {
		rates[k] = 0.10
	}
	return faultsim.Plan{Seed: seed, Rates: rates}
}

// repSeed derives rep i's fault-plan seed from the run seed, so reps of
// one run see different fault schedules.
func repSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// crawlRep runs the fleet over the crawl plan: crawl keeps every flow
// resident; crawl-chaos faults attempts, retains nothing and exports
// through a file sink, and must still reach the same analyses.
func crawlRep(c *rep) (setupFunc, error) {
	chaos := c.opts.Workload == "crawl-chaos"
	var w *core.World
	setup := func() (func(), error) {
		cfg := core.WorldConfig{Sites: c.opts.Size.CrawlSites}
		dir := ""
		if chaos {
			var err error
			if dir, err = os.MkdirTemp(c.opts.TempDir, "sink-"); err != nil {
				return nil, fmt.Errorf("sink dir: %w", err)
			}
			var pub sink.Publisher = sink.NewFileSink(dir)
			if c.tr != nil {
				pub = &timedPublisher{Publisher: pub, t: c.tr, h: c.tr.hist("sink.publish")}
			}
			cfg.Retain = capture.RetainNone
			cfg.Sinks = []sink.Publisher{pub}
			// Block, not drop: the export stream must carry every committed
			// flow, which the check below holds it to.
			cfg.SinkConfig = sink.Config{Policy: sink.PolicyBlock}
		}
		world, err := c.buildWorld(cfg, "crawl")
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if chaos {
			world.InstallFaults(faultsim.New(chaosPlan(repSeed(c.opts.Seed, c.index))))
		}
		w = world
		return func() {
			world.Close()
			os.RemoveAll(dir)
		}, nil
	}
	teardown, err := c.assemble(setup)
	if err != nil {
		return nil, err
	}
	defer teardown()
	if c.tr != nil {
		if err := c.tr.instrument(w, nil); err != nil {
			return nil, err
		}
	}

	var res *core.CampaignResult
	err = c.timed("campaign", func() error {
		var err error
		res, err = w.RunCampaign(core.CampaignConfig{Parallelism: parallelism})
		if err == nil && w.Exporter != nil {
			w.Exporter.Drain()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s := &c.res.Sample
	s.Visits = len(res.Visits)
	s.Failed = res.Degraded
	s.Flows = committed(w)
	if c.tr != nil {
		c.tr.count("retries", int64(res.Retries))
	}
	c.finish(w)
	switch stored := resident(w); {
	case !chaos && stored != s.Flows:
		c.problem("%d flows resident, want all %d committed", stored, s.Flows)
	case chaos && stored != 0:
		c.problem("%d flows resident under retain=none", stored)
	}
	if chaos {
		for _, st := range w.Exporter.Stats() {
			if st.Published != s.Flows || st.Dropped != 0 {
				c.problem("sink %s published %d and dropped %d of %d committed flows", st.Name, st.Published, st.Dropped, s.Flows)
			}
		}
	}
	return setup, nil
}

// fabricRep runs the fabric plan on a fresh coordinator and worker
// planes (plus one spare), all built as set-up like
// BenchmarkFabricScaling. After the timed window it crawls the same plan
// in this process with no upstream RTT, untimed: the fabric's merged
// analyses must equal that reference.
func fabricRep(c *rep) (setupFunc, error) {
	size := c.opts.Size
	cfg := core.WorldConfig{Sites: size.FabricSites, UpstreamRTT: size.RTT}
	newWorld := func(role string) (*core.World, error) {
		w, err := c.buildWorld(cfg, role)
		if err != nil {
			return nil, err
		}
		switch {
		case c.tr == nil:
		case role == "coordinator":
			if err := c.tr.instrument(w, nil); err != nil {
				w.Close()
				return nil, err
			}
		default:
			c.tr.instrumentProxy(w)
		}
		return w, nil
	}

	// fabric.Run closes the worker worlds it takes from the pool; a
	// teardown closes the coordinator and whatever the pool still holds.
	var (
		coord *core.World
		mu    sync.Mutex
		pool  []*core.World
	)
	setup := func() (func(), error) {
		co, err := newWorld("coordinator")
		if err != nil {
			return nil, err
		}
		planes := []*core.World{co} // the coordinator, then the workers
		for j := 0; j <= size.Workers; j++ {
			w, err := newWorld("worker")
			if err != nil {
				closeWorlds(planes)
				return nil, err
			}
			planes = append(planes, w)
		}
		mu.Lock()
		coord, pool = co, planes[1:]
		mu.Unlock()
		return func() {
			mu.Lock()
			left := append([]*core.World{co}, pool...)
			pool = nil
			mu.Unlock()
			closeWorlds(left)
		}, nil
	}
	teardown, err := c.assemble(setup)
	if err != nil {
		return nil, err
	}
	defer teardown()

	nextWorker := func() (*core.World, error) {
		mu.Lock()
		defer mu.Unlock()
		if len(pool) == 0 {
			return newWorld("worker-restart")
		}
		w := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return w, nil
	}
	var res *fabric.Result
	err = c.timed("fabric.run", func() error {
		var err error
		res, err = fabric.Run(fabric.Config{
			World:          coord,
			NewWorkerWorld: nextWorker,
			Workers:        size.Workers,
			LeaseVisits:    2,
			Campaign:       core.CampaignConfig{Parallelism: parallelism},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	s := &c.res.Sample
	s.Visits = len(res.Campaign.Visits)
	s.Failed = res.Campaign.Degraded
	s.Flows = committed(coord)
	if c.tr != nil {
		st := res.Stats
		c.tr.count("retries", int64(res.Campaign.Retries))
		c.tr.count("leases", int64(st.LeasesIssued))
		c.tr.count("reclaimed", int64(st.LeasesReclaimed))
		c.tr.count("dups", int64(st.DuplicateDrops))
		c.tr.count("merged", int64(st.FlowsMerged))
	}
	c.finish(coord)
	ref, err := referenceDigest(size.FabricSites)
	if err != nil {
		return nil, err
	}
	if c.res.Digest != ref {
		c.problem("fabric digest %.12s, single-process reference crawl %.12s", c.res.Digest, ref)
	}
	return setup, nil
}

func closeWorlds(ws []*core.World) {
	for _, w := range ws {
		w.Close()
	}
}

// referenceDigest crawls the whole fleet over the first sites of the
// dataset in one process with no upstream RTT and digests the analyses.
func referenceDigest(sites int) (string, error) {
	w, err := core.NewWorld(core.WorldConfig{Sites: sites})
	if err != nil {
		return "", err
	}
	defer w.Close()
	if _, err := w.RunCampaign(core.CampaignConfig{Parallelism: parallelism}); err != nil {
		return "", err
	}
	return Digest(w)
}

// populationRep synthesizes the population into a fresh world, driving
// RunUntil in one-second virtual steps.
func populationRep(c *rep) (setupFunc, error) {
	size := c.opts.Size
	var (
		w *core.World
		e *popsim.Engine
	)
	setup := func() (func(), error) {
		world, err := c.buildWorld(core.WorldConfig{Sites: size.PopSites, Retain: capture.RetainNone}, "population")
		if err != nil {
			return nil, err
		}
		engine, err := world.NewPopulation(core.PopulationConfig{
			Population:  size.Users,
			Duration:    popDuration,
			RampUp:      popDuration,
			AdmitPerSec: float64(size.Users) / 15,
			SampleEvery: 256,
			Seed:        c.opts.Seed,
			Parallelism: parallelism,
		})
		if err != nil {
			world.Close()
			return nil, err
		}
		w, e = world, engine
		return world.Close, nil
	}
	teardown, err := c.assemble(setup)
	if err != nil {
		return nil, err
	}
	defer teardown()
	var tap, step *hist
	if c.tr != nil {
		curve := map[string]pipeline.Analyzer{core.PopulationCurveName: e.Curve()}
		if err := c.tr.instrument(w, curve); err != nil {
			return nil, err
		}
		tap, step = c.tr.hist("tap"), c.tr.hist("popsim.step")
	}

	err = c.timed("population.run", func() error {
		for v := time.Second; v <= popDuration; v += time.Second {
			var sp *span
			if c.tr != nil {
				sp = c.tr.start("popsim.step", c.tr.repSpan, "virtual_s", strconv.Itoa(int(v/time.Second)))
			}
			if err := e.RunUntil(v); err != nil {
				return err
			}
			if c.tr != nil {
				step.observe(c.tr.end(sp))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := e.Stats()
	s := &c.res.Sample
	s.Visits = st.Visits
	s.Sessions = st.Sessions
	s.Flows = st.FlowsCommitted
	if c.tr != nil {
		c.tr.count("pop_events", st.EventsScheduled)
		c.tr.count("pop_throttled", st.Throttled)
		// popsim's own time: the steps minus the commit tap they drove.
		c.tr.count("pop_self_ns", step.sum.Load()-tap.sum.Load())
	}
	c.finish(w)
	if got := committed(w); got != s.Flows {
		c.problem("analyses saw %d flows, engine committed %d", got, s.Flows)
	}
	if n := resident(w); n != 0 {
		c.problem("%d flows resident under retain=none", n)
	}
	return setup, nil
}

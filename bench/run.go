// Package bench is panoptes-bench: four workloads that drive the
// measurement plane through its public entry points (core.NewWorld,
// World.RunCampaign, fabric.Run, World.NewPopulation + Engine.RunUntil),
// time them from outside, and check every run's analyses against a
// canonical suite digest.
//
// A run measures whole plans of one workload. A rep — assemble fresh
// worlds (the set-up), run the workload's plan (timed), check the output,
// tear down, time the set-up again — runs in its own process, and the run
// starts reps while the next is expected to end inside its wall-clock
// window, at least one, and reports the median over reps. At the
// default sizes one plan fills the window. A traced run alternates
// untraced and traced reps: the traced ones feed the per-layer metrics,
// the pair gives the tracing overhead.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"panoptes/internal/core"
)

// Workloads in the order a full run interleaves them.
var Workloads = []string{"crawl", "crawl-chaos", "fabric-wan", "population"}

// waitBound reports whether a workload's wall time is set by waiting
// (fabric-wan's 10 ms upstream flights) rather than by the CPU.
func waitBound(workload string) bool { return workload == "fabric-wan" }

// DefaultSeed is a workload's seed when none is given. It keys the fault
// plan of crawl-chaos and the synthetic population; crawl and fabric-wan
// inputs are fixed by their site counts (websim.Dataset is deterministic).
func DefaultSeed(workload string) int64 {
	switch workload {
	case "crawl-chaos":
		return 99
	case "population":
		return 42
	}
	return 0
}

// Size scales the workloads.
type Size struct {
	CrawlSites  int           // crawl/crawl-chaos plan: the whole fleet over this many sites
	FabricSites int           // fabric-wan plan
	Workers     int           // fabric-wan worker planes (one spare is built beside them)
	RTT         time.Duration // fabric-wan upstream round trip
	Users       int           // population size
	PopSites    int           // population web size
	Reference   float64       // reference computation size (see referenceTime)
}

// DefaultSize is the benchmark: the whole 15-browser fleet over 64 sites
// (960 visits) for the crawls and over 8 sites for fabric-wan, and 100k
// users for population. A crawl of 64 sites is past the fleet's start-up:
// per-visit time is flat from 16 sites on, and start-up is about 5% of
// the plan's time (README). Every concurrency knob is 2, the measuring
// host's core count.
var DefaultSize = Size{CrawlSites: 64, FabricSites: 8, Workers: 2, RTT: 10 * time.Millisecond, Users: 100000, PopSites: 50, Reference: 1}

// ToySize is the smoke test's: a second or two per run, same code
// paths; no upstream RTT, so the fabric run is CPU-bound.
var ToySize = Size{CrawlSites: 2, FabricSites: 2, Workers: 1, Users: 2000, PopSites: 50, Reference: 0.01}

// parallelism is campaign Parallelism and popsim synthesis Parallelism.
const parallelism = 2

// popDuration is the population's virtual run time and ramp-up.
const popDuration = 30 * time.Second

// Options selects one run (and, passed on, each of its reps).
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64 // measurement window; at least one rep (two when traced) always runs
	Trace    bool
	Size     Size
	// TempDir receives crawl-chaos sink output, removed after each rep.
	TempDir string
	// Artifacts, when set on a traced run, receives trace-<workload>.jsonl
	// (the coarse spans) and cpu-<workload>.pprof (the last traced rep).
	Artifacts string
	// Spawn runs rep i; the command runs each in a fresh child process.
	// Nil runs reps in this process.
	Spawn func(i int, traced bool) (*RepResult, error)
}

// Value is one metric reading.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is one run's outcome.
type Record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"` // planned visits over all reps
	Failed    int              `json:"failed"`
	Digest    string           `json:"digest"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	Samples   []Sample         `json:"samples"` // one per rep
}

// ResultLine is the one-line result a run prints last: exactly the
// listed metrics of its kind (end-to-end untraced, per-layer traced).
func (r *Record) ResultLine() ([]byte, error) {
	list := EndToEnd
	if r.Trace {
		list = PerLayer
	}
	metrics := make(map[string]Value)
	for _, m := range list {
		if !m.Listed {
			continue
		}
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("bench: %s run did not measure %s", r.Workload, m.Name)
		}
		metrics[m.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// runner is one run's state.
type runner struct {
	opts   Options
	want   string // expected digest ("" = the first rep's)
	reps   []Sample
	probs  []string
	layers Layers
}

func (r *runner) problem(format string, args ...any) {
	r.probs = append(r.probs, fmt.Sprintf(format, args...))
}

// Run executes one run.
func Run(opts Options) (*Record, error) {
	key, ok := planKey(opts)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", opts.Workload, Workloads)
	}
	r := &runner{opts: opts, want: pinned(key)}
	if opts.Trace && opts.Artifacts != "" {
		if err := os.MkdirAll(opts.Artifacts, 0o755); err != nil {
			return nil, fmt.Errorf("bench: artifacts: %w", err)
		}
	}
	spawn := opts.Spawn
	if spawn == nil {
		spawn = func(i int, traced bool) (*RepResult, error) {
			o := opts
			o.Trace = traced
			return RunRep(o, i)
		}
	}

	window := time.Duration(opts.Seconds * float64(time.Second))
	minReps := 1
	if opts.Trace {
		minReps = 2
	}
	start := time.Now()
	ref := referenceTime(opts.Size.Reference)
	for i := 0; ; i++ {
		traced := opts.Trace && i%2 == 1
		repStart := time.Now()
		res, err := spawn(i, traced)
		if err != nil {
			r.problem("rep %d: %v", i, err)
			break
		}
		s := res.Sample
		s.wall = time.Since(repStart)
		next := referenceTime(opts.Size.Reference)
		s.Ref = time.Duration(math.Sqrt(float64(ref) * float64(next)))
		ref = next
		ok := len(res.Problems) == 0
		for _, p := range res.Problems {
			r.problem("rep %d: %s", i, p)
		}
		if r.want == "" {
			r.want = res.Digest
		}
		if res.Digest != r.want {
			r.problem("rep %d: digest %.12s, want %.12s", i, res.Digest, r.want)
			ok = false
		}
		if !ok {
			s.Failed = s.Visits
		}
		r.reps = append(r.reps, s)
		if res.Layers != nil {
			r.layers.merge(res.Layers, float64(repStart.Sub(start))/1e6)
		}
		if i+1 >= minReps && time.Since(start)+r.typicalRep() > window {
			break
		}
	}
	if opts.Trace && opts.Artifacts != "" {
		if err := r.writeSpans(filepath.Join(opts.Artifacts, "trace-"+opts.Workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	return r.record(), nil
}

// typicalRep is the median rep wall time so far.
func (r *runner) typicalRep() time.Duration {
	walls := make([]float64, len(r.reps))
	for i, s := range r.reps {
		walls[i] = float64(s.wall)
	}
	return time.Duration(medianOf(walls))
}

// writeSpans writes the traced reps' coarse spans as JSON lines.
func (r *runner) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.layers.Spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("bench: write %s: %w", path, err)
		}
	}
	return f.Close()
}

// record turns the reps into the run's Record.
func (r *runner) record() *Record {
	rec := &Record{
		Workload: r.opts.Workload, Seed: r.opts.Seed, Trace: r.opts.Trace,
		Digest: r.want, Problems: r.probs, Metrics: make(map[string]Value), Samples: r.reps,
	}
	var setup, visitRate, flowRate, sessRate, cpuPerFlow, rss, tracedFlowRate []float64
	for _, s := range r.reps {
		rec.Attempted += s.Visits
		rec.Failed += s.Failed
		// CPU-bound times are reported at the baseline host's speed: each
		// is divided by how much slower the host ran the reference
		// computation around this rep. A wait-bound workload's wall time
		// is set by its waits, so its rates are left as measured.
		slow := float64(s.Ref) / (float64(refNominal) * r.opts.Size.Reference)
		secs := s.Elapsed.Seconds()
		if !waitBound(r.opts.Workload) {
			secs /= slow
		}
		if s.Traced {
			tracedFlowRate = append(tracedFlowRate, float64(s.Flows)/secs)
			continue
		}
		setup = append(setup, s.Setup.Seconds()/slow)
		rss = append(rss, s.PeakRSS)
		visitRate = append(visitRate, float64(s.Visits)/secs)
		flowRate = append(flowRate, float64(s.Flows)/secs)
		if s.Sessions > 0 {
			sessRate = append(sessRate, float64(s.Sessions)/secs)
		}
		if s.Flows > 0 {
			cpuPerFlow = append(cpuPerFlow, float64(s.CPU)/1e3/float64(s.Flows)/slow)
		}
	}
	rec.Correct = len(r.probs) == 0 && rec.Attempted > 0
	if len(r.reps) == 0 {
		// Nothing ran: report one attempted unit, failed.
		rec.Attempted, rec.Failed = 1, 1
		return rec
	}
	put := func(name string, v float64) {
		m, _ := lookupMetric(name)
		rec.Metrics[name] = Value{Value: v, Unit: m.Unit}
	}
	put("setup_s", medianOf(setup))
	put("visits_per_s", medianOf(visitRate))
	put("flows_per_s", medianOf(flowRate))
	put("cpu_us_per_flow", medianOf(cpuPerFlow))
	put("peak_rss_mb", medianOf(rss))
	if len(sessRate) > 0 {
		put("sessions_per_s", medianOf(sessRate))
	}
	put("failed_pct", 100*float64(rec.Failed)/float64(rec.Attempted))
	if r.opts.Trace {
		r.layerMetrics(put, medianOf(flowRate)/medianOf(tracedFlowRate)-1)
	}
	return rec
}

// layerMetrics derives the per-layer metrics from the merged traced
// reps. Counts are per traced rep; times come from the histograms.
func (r *runner) layerMetrics(put func(string, float64), overhead float64) {
	l := &r.layers
	h := func(name string) Hist { return l.Hists[name] }
	c := func(name string) int64 { return l.Counters[name] }
	n := float64(max(l.Reps, 1))
	per := func(x int64) float64 { return float64(x) / n }
	pct := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }

	put("core.new_world_ms", medianOf(l.WorldBuildMs))
	put("core.retries_per_visit", ratio(c("retries"), c("visits")))
	put("mitm.exchanges", per(h("mitm.forward").Count))
	if fwd := h("mitm.forward"); fwd.Count > 0 {
		put("mitm.forward_us.p50", fwd.quantile(0.50)/1e3)
		put("mitm.forward_us.p99", fwd.quantile(0.99)/1e3)
	}
	up := c("up_reused") + c("up_dialed")
	put("mitm.upstream_exchanges", per(up))
	put("mitm.conn_reuse_pct", pct(c("up_reused"), up))
	put("mitm.handshakes", per(c("hs_all")))
	put("mitm.handshake_resumed_pct", pct(c("hs_resumed"), c("hs_all")))
	certs := c("cert_hit") + c("cert_miss")
	put("mitm.cert_lookups", per(certs))
	put("mitm.cert_cache_hit_pct", pct(c("cert_hit"), certs))
	put("mitm.handshake_failures", per(c("hs_fail")))

	tap := h("tap")
	put("capture.tap_ns_per_flow", tap.mean())
	if seal := h("seal"); seal.Count > 0 {
		put("capture.seal_us", seal.mean()/1e3)
	}
	if retract := h("retract"); retract.Count > 0 {
		put("capture.retract_us", retract.mean()/1e3)
	}
	put("capture.retracts", per(h("retract").Count))
	put("capture.retracted_flows", per(c("seen")-c("flows")))
	put("capture.resident_flows", per(c("resident")))

	self := tap.Sum - h("sink.observe").Sum
	for _, name := range append(append([]string(nil), suiteAnalyzerNames...), core.PopulationCurveName) {
		a, ok := l.Hists["analyzer."+name]
		if !ok {
			continue
		}
		self -= a.Sum
		put("analyzer."+name+".ns_per_flow", a.mean())
	}
	put("pipeline.self_ns_per_flow", float64(self)/float64(max(tap.Count, 1)))

	if obs := h("sink.observe"); obs.Count > 0 {
		put("sink.observe_ns_per_flow", obs.mean())
	}
	if pub := h("sink.publish"); pub.Count > 0 {
		put("sink.publish_ms_per_batch", pub.mean()/1e6)
	}
	put("sink.published", per(c("published")))
	put("sink.dropped", per(c("dropped")))

	put("fabric.leases_issued", per(c("leases")))
	put("fabric.leases_reclaimed", per(c("reclaimed")))
	put("fabric.duplicate_drops", per(c("dups")))
	put("fabric.flows_merged", per(c("merged")))

	if step := h("popsim.step"); step.Count > 0 {
		put("popsim.step_ms.p50", step.quantile(0.50)/1e6)
		put("popsim.step_ms.p99", step.quantile(0.99)/1e6)
		put("popsim.self_ms", per(c("pop_self_ns"))/1e6)
	}
	put("popsim.events_scheduled", per(c("pop_events")))
	put("popsim.throttled", per(c("pop_throttled")))

	put("runtime.allocs_per_flow", ratio(c("allocs"), c("flows")))
	put("runtime.gc_cycles", per(c("gc_cycles")))
	put("runtime.gc_pause_ms", per(c("gc_pause_ns"))/1e6)
	put("trace.overhead_pct", 100*overhead)
}

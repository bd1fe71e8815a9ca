package bench

import (
	"math"
	"sort"
)

// Metric describes one reported number. The Listed metrics are the ones
// BENCHMARK.json names (the smoke test holds the two in step); a single
// run's result line carries exactly those. The rest are reported by the
// full run only, because they exist on some workloads and not others.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before compare calls it a regression. Floor is an
	// absolute amount the change must also exceed (0 = none).
	Bound, Floor float64
	Listed       bool
}

// EndToEnd are the user-visible metrics, measured with tracing off.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.02, Listed: true},
	{Name: "visits_per_s", Unit: "visits/s", Better: "higher", Bound: 0.24, Listed: true},
	{Name: "flows_per_s", Unit: "flows/s", Better: "higher", Bound: 0.24, Listed: true},
	{Name: "cpu_us_per_flow", Unit: "us/flow", Better: "lower", Bound: 0.24, Listed: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.22, Listed: true},
	// Population only: a crawl has no sessions to count.
	{Name: "sessions_per_s", Unit: "sessions/s", Better: "higher", Bound: 0.20},
	// Zero on a healthy run, so it cannot carry a relative bound: any
	// rise is a regression.
	{Name: "failed_pct", Unit: "%", Better: "lower"},
}

// suiteAnalyzerNames are the analysis suite's pipeline registrations.
var suiteAnalyzerNames = []string{
	"fig2", "fig3", "fig4", "table2", "leaks-native", "leaks-engine",
	"dns", "trackable", "listing1", "transport",
}

// PerLayer are the traced run's metrics. Listed ones are defined on every
// workload (a count may be zero where its layer is idle); the others are
// timings of a layer only some workloads reach.
var PerLayer = func() []Metric {
	m := []Metric{
		{Name: "core.new_world_ms", Unit: "ms", Better: "lower", Listed: true},
		{Name: "core.retries_per_visit", Unit: "retries/visit", Better: "lower", Listed: true},
		{Name: "mitm.exchanges", Unit: "count", Better: "lower", Listed: true},
		{Name: "mitm.forward_us.p50", Unit: "us", Better: "lower"},
		{Name: "mitm.forward_us.p99", Unit: "us", Better: "lower"},
		{Name: "mitm.upstream_exchanges", Unit: "count", Better: "lower", Listed: true},
		{Name: "mitm.conn_reuse_pct", Unit: "%", Better: "higher", Listed: true},
		{Name: "mitm.handshakes", Unit: "count", Better: "lower", Listed: true},
		{Name: "mitm.handshake_resumed_pct", Unit: "%", Better: "higher", Listed: true},
		{Name: "mitm.cert_lookups", Unit: "count", Better: "lower", Listed: true},
		{Name: "mitm.cert_cache_hit_pct", Unit: "%", Better: "higher", Listed: true},
		{Name: "mitm.handshake_failures", Unit: "count", Better: "lower", Listed: true},
		{Name: "capture.tap_ns_per_flow", Unit: "ns/flow", Better: "lower", Listed: true},
		{Name: "capture.seal_us", Unit: "us", Better: "lower"},
		{Name: "capture.retract_us", Unit: "us", Better: "lower"},
		{Name: "capture.retracts", Unit: "count", Better: "lower", Listed: true},
		{Name: "capture.retracted_flows", Unit: "count", Better: "lower", Listed: true},
		{Name: "capture.resident_flows", Unit: "count", Better: "lower", Listed: true},
		{Name: "pipeline.self_ns_per_flow", Unit: "ns/flow", Better: "lower", Listed: true},
	}
	for _, a := range suiteAnalyzerNames {
		m = append(m, Metric{Name: "analyzer." + a + ".ns_per_flow", Unit: "ns/flow", Better: "lower", Listed: true})
	}
	return append(m,
		Metric{Name: "analyzer.population-curve.ns_per_flow", Unit: "ns/flow", Better: "lower"},
		Metric{Name: "sink.observe_ns_per_flow", Unit: "ns/flow", Better: "lower"},
		Metric{Name: "sink.publish_ms_per_batch", Unit: "ms/batch", Better: "lower"},
		Metric{Name: "sink.published", Unit: "count", Better: "higher", Listed: true},
		Metric{Name: "sink.dropped", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "fabric.leases_issued", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "fabric.leases_reclaimed", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "fabric.duplicate_drops", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "fabric.flows_merged", Unit: "count", Better: "higher", Listed: true},
		Metric{Name: "popsim.step_ms.p50", Unit: "ms", Better: "lower"},
		Metric{Name: "popsim.step_ms.p99", Unit: "ms", Better: "lower"},
		Metric{Name: "popsim.self_ms", Unit: "ms", Better: "lower"},
		Metric{Name: "popsim.events_scheduled", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "popsim.throttled", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "runtime.allocs_per_flow", Unit: "allocs/flow", Better: "lower", Listed: true},
		Metric{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Listed: true},
		Metric{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Listed: true},
		Metric{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Listed: true},
	)
}()

// lookupMetric finds a metric's description by name.
func lookupMetric(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Summary is a sample's median and quartiles. The quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize computes a Summary (zero for an empty sample).
func Summarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	s := Summary{Median: median(x), N: n}
	if n == 1 {
		s.Q1, s.Q3 = x[0], x[0]
		return s
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		lo, hi := x[max(j-1, 0)], x[min(j, n-1)]
		return (lo*float64(4-delta) + hi*float64(delta)) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// RelIQR is the quartile distance as a share of the median.
func (s Summary) RelIQR() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	return median(x)
}

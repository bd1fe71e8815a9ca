package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"panoptes/internal/obs"
)

// MetricsSummary renders the end-of-campaign observability table: one
// row per metric family with its total, and p50/p95 for histograms —
// the operator's view of where time and bytes went.
func MetricsSummary(w io.Writer, r *obs.Registry) {
	fmt.Fprintln(w, "Observability summary — metric families (obs registry)")
	fmt.Fprintf(w, "%-34s %14s %10s %10s\n", "family", "total", "p50", "p95")
	for _, name := range r.Families() {
		total := r.Sum(name)
		p50, p95 := histQuantiles(r, name)
		if p50 != "" || p95 != "" {
			fmt.Fprintf(w, "%-34s %14s %10s %10s\n", name, formatCount(total), p50, p95)
		} else {
			fmt.Fprintf(w, "%-34s %14s\n", name, formatCount(total))
		}
	}
}

// histQuantiles formats p50/p95 for histogram families ("" otherwise).
func histQuantiles(r *obs.Registry, name string) (p50, p95 string) {
	h, ok := r.FindHistogram(name)
	if !ok || h.Count() == 0 {
		return "", ""
	}
	return formatSeconds(h.Quantile(0.50)), formatSeconds(h.Quantile(0.95))
}

func formatSeconds(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Millisecond).String()
}

func formatCount(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// CampaignObsSummary prints the headline operator numbers after a crawl:
// cert-cache hit rate, per-visit latency percentiles, proxied exchange
// and byte totals — the acceptance numbers for every later perf PR.
func CampaignObsSummary(w io.Writer, r *obs.Registry) {
	hits := float64(r.Counter("mitm_cert_cache_total", "result", "hit").Value())
	misses := float64(r.Counter("mitm_cert_cache_total", "result", "miss").Value())
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * hits / (hits + misses)
	}
	fmt.Fprintln(w, "Campaign observability summary")
	fmt.Fprintf(w, "  cert-cache hit rate    %5.1f%% (%d hits, %d misses)\n", rate, int64(hits), int64(misses))

	resClient := r.Counter("mitm_handshake_resumed_total", "side", "client").Value()
	resUp := r.Counter("mitm_handshake_resumed_total", "side", "upstream").Value()
	if resClient+resUp > 0 {
		fmt.Fprintf(w, "  resumed handshakes     %d client / %d upstream\n", resClient, resUp)
	}
	reused := float64(r.Counter("mitm_conn_reuse_total", "result", "reused").Value())
	dialed := float64(r.Counter("mitm_conn_reuse_total", "result", "dialed").Value())
	if reused+dialed > 0 {
		fmt.Fprintf(w, "  upstream conn reuse    %5.1f%% (%d reused, %d dialed)\n",
			100*reused/(reused+dialed), int64(reused), int64(dialed))
	}

	vh := r.Histogram("core_visit_duration_seconds", nil)
	if vh.Count() > 0 {
		fmt.Fprintf(w, "  per-visit latency      p50 %s  p95 %s (%d visits)\n",
			formatSeconds(vh.Quantile(0.50)), formatSeconds(vh.Quantile(0.95)), vh.Count())
	}
	fmt.Fprintf(w, "  proxied exchanges      %d (https %d, http %d)\n",
		int64(r.Sum("mitm_requests_total")),
		r.Counter("mitm_requests_total", "scheme", "https").Value(),
		r.Counter("mitm_requests_total", "scheme", "http").Value())
	fmt.Fprintf(w, "  proxied bytes          %d up / %d down\n",
		r.Counter("mitm_bytes_total", "dir", "up").Value(),
		r.Counter("mitm_bytes_total", "dir", "down").Value())
	fmt.Fprintf(w, "  flows stored           %d engine / %d native\n",
		r.Counter("capture_flows_total", "db", "engine").Value(),
		r.Counter("capture_flows_total", "db", "native").Value())
	fmt.Fprintf(w, "  dns questions          %d doh / %d stub\n",
		int64(sumLabel(r, "dns_queries_total", "transport", "doh")),
		int64(sumLabel(r, "dns_queries_total", "transport", "stub")))
	if r.Sum("mitm_transport_flows_total") > 0 {
		fmt.Fprintf(w, "  transport mix          %d h1 / %d h2 / %d ws / %d doh flows\n",
			int64(sumLabel(r, "mitm_transport_flows_total", "transport", "h1")),
			int64(sumLabel(r, "mitm_transport_flows_total", "transport", "h2")),
			int64(sumLabel(r, "mitm_transport_flows_total", "transport", "ws")),
			int64(sumLabel(r, "mitm_transport_flows_total", "transport", "doh")))
	}
	if fb, byp := r.Sum("netsim_quic_fallback_total"), r.Sum("netsim_quic_bypass_total"); fb+byp > 0 {
		fmt.Fprintf(w, "  quic arms race         %d forced TCP fallbacks / %d uncaptured h3 bypasses\n",
			int64(fb), int64(byp))
	}
	fmt.Fprintf(w, "  virtual conns opened   %d (%d dial errors)\n",
		r.Counter("netsim_conns_opened_total").Value(),
		r.Counter("netsim_dial_errors_total").Value())
}

// PipelineObsSummary renders the streaming-analysis view: one row per
// registered analyzer with observe counts, retracted-attempt counts and
// per-flow observe-latency percentiles over the pipeline's sampled
// timings, with their sample count so a short run shows how few points
// its percentiles rest on, plus the retention picture —
// flows still resident in each capture database versus flows spilled
// to the JSONL sink.
func PipelineObsSummary(w io.Writer, r *obs.Registry) {
	series := r.Series("pipeline_observed_total")
	if len(series) == 0 {
		return
	}
	names := make([]string, 0, len(series))
	for _, s := range series {
		if a := s.Labels["analyzer"]; a != "" {
			names = append(names, a)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "Streaming pipeline summary")
	fmt.Fprintf(w, "  %-20s %10s %10s %8s %10s %10s\n", "analyzer", "observed", "retracted", "samples", "p50*", "p95*")
	for _, a := range names {
		h := r.Histogram("pipeline_observe_seconds", nil, "analyzer", a)
		p50, p95 := "-", "-"
		if h.Count() > 0 {
			p50, p95 = formatLatency(h.Quantile(0.50)), formatLatency(h.Quantile(0.95))
		}
		fmt.Fprintf(w, "  %-20s %10d %10d %8d %10s %10s\n", a,
			r.Counter("pipeline_observed_total", "analyzer", a).Value(),
			r.Counter("pipeline_retractions_total", "analyzer", a).Value(),
			h.Count(), p50, p95)
	}
	fmt.Fprintln(w, "  * latency sampled: a sample is a batch's per-flow mean, one per batch holding the first flow or a 1024th after it")
	fmt.Fprintf(w, "  resident flows         %d engine / %d native\n",
		int64(r.Gauge("capture_store_flows", "db", "engine").Value()),
		int64(r.Gauge("capture_store_flows", "db", "native").Value()))
	fmt.Fprintf(w, "  spilled flows          %d engine / %d native\n",
		r.Counter("capture_spilled_total", "db", "engine").Value(),
		r.Counter("capture_spilled_total", "db", "native").Value())
}

// SinkObsSummary renders the export plane's view: one row per sink with
// published/dropped event counts and breaker open transitions, then the
// flush-trigger mix. Quiet when no sink metrics exist (no export plane
// wired).
func SinkObsSummary(w io.Writer, r *obs.Registry) {
	series := r.Series("sink_published_total")
	sinks := make(map[string]bool)
	for _, s := range series {
		if name := s.Labels["sink"]; name != "" {
			sinks[name] = true
		}
	}
	for _, s := range r.Series("sink_dropped_total") {
		if name := s.Labels["sink"]; name != "" {
			sinks[name] = true
		}
	}
	if len(sinks) == 0 {
		return
	}
	names := make([]string, 0, len(sinks))
	for name := range sinks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "Export sink summary")
	fmt.Fprintf(w, "  %-12s %12s %12s %14s\n", "sink", "published", "dropped", "breaker opens")
	for _, name := range names {
		fmt.Fprintf(w, "  %-12s %12d %12d %14d\n", name,
			r.Counter("sink_published_total", "sink", name).Value(),
			int64(sumLabel(r, "sink_dropped_total", "sink", name)),
			r.Counter("sink_breaker_open_total", "sink", name).Value())
	}
	fmt.Fprintf(w, "  batch flushes          %d size / %d age / %d manual / %d final\n",
		r.Counter("sink_batch_flush_total", "trigger", "size").Value(),
		r.Counter("sink_batch_flush_total", "trigger", "age").Value(),
		r.Counter("sink_batch_flush_total", "trigger", "manual").Value(),
		r.Counter("sink_batch_flush_total", "trigger", "final").Value())
	if deduped := r.Counter("sink_deduped_total").Value(); deduped > 0 {
		fmt.Fprintf(w, "  resume dedupe          %d events skipped\n", deduped)
	}
}

// PopulationObsSummary renders the population session engine's view:
// active users, sessions admitted, scheduler pressure and admission
// throttling. Quiet when no population ran (emulator-only campaign).
func PopulationObsSummary(w io.Writer, r *obs.Registry) {
	sessions := r.Counter("popsim_sessions_total").Value()
	if sessions == 0 {
		return
	}
	fmt.Fprintln(w, "Population engine summary")
	fmt.Fprintf(w, "  active users           %d\n",
		int64(r.Gauge("popsim_active_users").Value()))
	fmt.Fprintf(w, "  sessions admitted      %d\n", sessions)
	fmt.Fprintf(w, "  events scheduled       %d\n",
		r.Counter("popsim_events_scheduled_total").Value())
	fmt.Fprintf(w, "  admission throttled    %d session starts deferred\n",
		r.Counter("popsim_admission_throttled_total").Value())
	if churned := sumLabel(r, "fault_injected_total", "kind", "user_churn"); churned > 0 {
		fmt.Fprintf(w, "  churned users          %d\n", int64(churned))
	}
}

// FabricObsSummary renders the distributed fabric's view: lease
// lifecycle counts, worker restarts, merge lag and transport health.
// Quiet when no leases were issued (single-process run).
func FabricObsSummary(w io.Writer, r *obs.Registry) {
	issued := r.Counter("fabric_lease_issued_total").Value()
	if issued == 0 {
		return
	}
	fmt.Fprintln(w, "Fabric summary")
	fmt.Fprintf(w, "  leases                 %d issued / %d reclaimed / %d duplicate completions\n",
		issued,
		r.Counter("fabric_lease_reclaimed_total").Value(),
		r.Counter("fabric_lease_duplicate_total").Value())
	fmt.Fprintf(w, "  worker restarts        %d\n",
		r.Counter("fabric_worker_restarts_total").Value())
	fmt.Fprintf(w, "  quarantined flows      %d\n",
		r.Counter("fabric_flows_quarantined_total").Value())
	fmt.Fprintf(w, "  merge lag              %d flows parked\n",
		int64(r.Gauge("fabric_merge_lag").Value()))
	fmt.Fprintf(w, "  transport sends        %d ok / %d failed\n",
		int64(sumLabel(r, "fabric_transport_sends_total", "result", "ok")),
		int64(sumLabel(r, "fabric_transport_sends_total", "result", "error")))
}

// formatLatency renders observe latencies, keeping sub-millisecond
// values legible (formatSeconds rounds to a whole millisecond, which
// would flatten per-flow analyzer costs to 0s).
func formatLatency(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	d := time.Duration(v * float64(time.Second))
	if d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Microsecond).String()
}

// sumLabel adds every series of family whose label set includes k=v.
func sumLabel(r *obs.Registry, name, k, v string) float64 {
	var total float64
	for _, s := range r.Series(name) {
		if s.Labels[k] == v {
			total += s.Value
		}
	}
	return total
}

const waterfallWidth = 48

// Waterfall renders span trees as an ASCII waterfall: one block per
// root (page visit), each descendant drawn as a bar positioned at its
// offset from the visit start, scaled to the visit duration.
func Waterfall(w io.Writer, trees []obs.SpanData) {
	for _, root := range trees {
		total := root.Duration()
		attrs := root.SortedAttrs()
		fmt.Fprintf(w, "%s %s  (%s)\n", root.Name, strings.Join(attrs, " "), total.Round(time.Millisecond))
		var walk func(d obs.SpanData, depth int)
		walk = func(d obs.SpanData, depth int) {
			off := d.Start.Sub(root.Start)
			fmt.Fprintf(w, "  %-26s |%s| %8s @%s\n",
				strings.Repeat("  ", depth)+d.Name,
				waterfallBar(off, d.Duration(), total),
				d.Duration().Round(time.Millisecond),
				off.Round(time.Millisecond))
			// Deep trees (one span per intercepted request) stay readable:
			// children are drawn in start order.
			children := append([]obs.SpanData(nil), d.Children...)
			sort.SliceStable(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
			for _, c := range children {
				walk(c, depth+1)
			}
		}
		for _, c := range root.Children {
			walk(c, 0)
		}
	}
}

func waterfallBar(off, dur, total time.Duration) string {
	if total <= 0 {
		return strings.Repeat(" ", waterfallWidth)
	}
	start := int(float64(off) / float64(total) * waterfallWidth)
	width := int(float64(dur) / float64(total) * waterfallWidth)
	if start > waterfallWidth {
		start = waterfallWidth
	}
	if width < 1 {
		width = 1 // zero-duration spans still get a tick mark
	}
	if start+width > waterfallWidth {
		width = waterfallWidth - start
		if width < 1 {
			start, width = waterfallWidth-1, 1
		}
	}
	return strings.Repeat(" ", start) + strings.Repeat("█", width) +
		strings.Repeat(" ", waterfallWidth-start-width)
}

package bench

import (
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/pipeline"
	"panoptes/internal/sink"
)

// A traced rep times layers from outside the program: every seam it
// wraps is public (DB.SetTap, Pipeline.Unregister/Register, Proxy.Use,
// the sink.Publisher interface). Per-flow layers fold into fixed
// log-bucket histograms that allocate nothing per observation; coarse
// spans (world build, rep, popsim step, sink batch) are kept in memory.
// The rep hands both to the run as Layers, which merges them across
// traced reps and writes the spans out when the run ends.

// subBuckets splits every power of two into four histogram buckets, so
// a quantile read from a bucket is within ~19% of the true value.
const subBuckets = 4

// hist is a lock-free log-bucket histogram of nanosecond durations.
type hist struct {
	count, sum atomic.Int64
	buckets    [64 * subBuckets]atomic.Int64
}

func bucketOf(ns int64) int {
	if ns < subBuckets {
		return int(max(ns, 0))
	}
	exp := bits.Len64(uint64(ns)) - 1 // ns in [2^exp, 2^(exp+1))
	frac := int(uint64(ns)>>(exp-2)) & (subBuckets - 1)
	return exp*subBuckets + frac
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	exp, frac := i/subBuckets, i%subBuckets
	lo := math.Ldexp(1+float64(frac)/subBuckets, exp)
	return lo + math.Ldexp(1, exp)/subBuckets/2
}

func (h *hist) observe(d time.Duration) {
	ns := int64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

func (h *hist) snapshot() Hist {
	s := Hist{Count: h.count.Load(), Sum: h.sum.Load(), Buckets: make(map[int]int64)}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets[i] = n
		}
	}
	return s
}

// Hist is a histogram snapshot: sparse buckets, mergeable across reps.
type Hist struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum_ns"`
	Buckets map[int]int64 `json:"buckets"`
}

func (h *Hist) add(o Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if h.Buckets == nil {
		h.Buckets = make(map[int]int64)
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// mean is the average observation in nanoseconds (0 when empty).
func (h Hist) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// quantile estimates the q-quantile in nanoseconds (0 when empty).
func (h Hist) quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	idx := make([]int, 0, len(h.Buckets))
	for i := range h.Buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	rank := int64(math.Ceil(q * float64(h.Count)))
	var seen int64
	for _, i := range idx {
		if seen += h.Buckets[i]; seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(idx[len(idx)-1])
}

// span is one coarse interval of a traced run.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_ms"` // since the run started
	Dur    float64           `json:"dur_ms"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	began  time.Time
}

// Layers is what traced reps report: named histograms, named counters,
// world-build times and coarse spans. Merging adds them up.
type Layers struct {
	Hists        map[string]Hist  `json:"hists"`
	Counters     map[string]int64 `json:"counters"`
	WorldBuildMs []float64        `json:"world_build_ms"`
	Spans        []span           `json:"spans"`
	Reps         int              `json:"reps"`
}

// merge folds one rep's layers in; offsetMs places its spans on the
// run's timeline.
func (l *Layers) merge(o *Layers, offsetMs float64) {
	if l.Hists == nil {
		l.Hists, l.Counters = make(map[string]Hist), make(map[string]int64)
	}
	for k, h := range o.Hists {
		m := l.Hists[k]
		m.add(h)
		l.Hists[k] = m
	}
	for k, n := range o.Counters {
		l.Counters[k] += n
	}
	l.WorldBuildMs = append(l.WorldBuildMs, o.WorldBuildMs...)
	base := len(l.Spans)
	for _, s := range o.Spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += offsetMs
		l.Spans = append(l.Spans, s)
	}
	l.Reps += o.Reps
}

// tracer records one traced rep.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	hists    map[string]*hist
	counters map[string]int64
	builds   []float64
	spans    []*span
	worlds   []*core.World // instrumented worlds, for end-of-rep counters
	repSpan  int           // the span sink batches hang off
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hists: make(map[string]*hist), counters: make(map[string]int64)}
}

// hist returns the named histogram, creating it on first use. Wrappers
// hold the pointer, so the per-flow path never takes the lock.
func (t *tracer) hist(name string) *hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = new(hist)
		t.hists[name] = h
	}
	return h
}

// built records one world assembly for core.new_world_ms.
func (t *tracer) built(d time.Duration) {
	t.mu.Lock()
	t.builds = append(t.builds, float64(d)/1e6)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counters[name] += n
	t.mu.Unlock()
}

// start opens a coarse span under parent (0 = root).
func (t *tracer) start(name string, parent int, attrs ...string) *span {
	s := &span{Name: name, Parent: parent, began: time.Now()}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) time.Duration {
	d := time.Since(s.began)
	t.mu.Lock()
	s.Start = float64(s.began.Sub(t.epoch)) / 1e6
	s.Dur = float64(d) / 1e6
	t.mu.Unlock()
	return d
}

// layers snapshots everything recorded.
func (t *tracer) layers() *Layers {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Layers{Hists: make(map[string]Hist), Counters: t.counters, WorldBuildMs: t.builds, Reps: 1}
	for k, h := range t.hists {
		l.Hists[k] = h.snapshot()
	}
	for _, s := range t.spans {
		l.Spans = append(l.Spans, *s)
	}
	return l
}

// suiteAnalyzers mirrors analysis.Suite.Register: the pipeline exposes
// analyzers only by name, so the wrappers are built from the suite's
// fields. A pipeline that registers anything else fails instrumentation
// rather than silently going untimed.
func suiteAnalyzers(w *core.World, extra map[string]pipeline.Analyzer) (map[string]pipeline.Analyzer, error) {
	s := w.Suite
	m := map[string]pipeline.Analyzer{
		"fig2": s.Fig2, "fig3": s.Fig3, "fig4": s.Fig4, "table2": s.PII,
		"leaks-native": s.LeakNative, "leaks-engine": s.LeakEngine,
		"dns": s.DNS, "trackable": s.Trackable, "listing1": s.Listing1,
		"transport": s.Transport,
	}
	for k, v := range extra {
		m[k] = v
	}
	for _, name := range w.Pipeline.Names() {
		if m[name] == nil {
			return nil, fmt.Errorf("bench: pipeline analyzer %q has no timed wrapper", name)
		}
	}
	return m, nil
}

// instrument wraps world w's commit tap, analyzers, exporter and proxy.
// extra names analyzers registered beside the suite (the population
// curve). Call before any traffic flows.
func (t *tracer) instrument(w *core.World, extra map[string]pipeline.Analyzer) error {
	byName, err := suiteAnalyzers(w, extra)
	if err != nil {
		return err
	}
	names := w.Pipeline.Names()
	for _, name := range names {
		w.Pipeline.Unregister(name)
	}
	for _, name := range names {
		w.Pipeline.Register(name, &timedAnalyzer{Analyzer: byName[name], h: t.hist("analyzer." + name)})
	}

	var inner capture.Tap = w.Pipeline
	if w.Exporter != nil {
		inner = capture.Taps{w.Pipeline, &timedTap{Tap: w.Exporter, obs: t.hist("sink.observe")}}
	}
	w.DB.SetTap(&timedTap{Tap: inner, obs: t.hist("tap"), seal: t.hist("seal"), retract: t.hist("retract")})
	t.instrumentProxy(w)
	return nil
}

// instrumentProxy times w's proxy forward leg and adds w to the worlds
// whose counters the rep totals. Fabric worker planes get only this: the
// worker swaps the commit tap for its shipper, so the fabric's commit
// cost is read at the coordinator's tap, where the merged stream lands.
func (t *tracer) instrumentProxy(w *core.World) {
	w.Proxy.Use(&forwardTimer{h: t.hist("mitm.forward"), starts: make(map[*capture.Flow]time.Time)})
	t.mu.Lock()
	t.worlds = append(t.worlds, w)
	t.mu.Unlock()
}

// countWorlds adds the proxy and export counters of every instrumented
// world. Call once the rep's traffic is done.
func (t *tracer) countWorlds() {
	t.mu.Lock()
	worlds := t.worlds
	t.mu.Unlock()
	for _, w := range worlds {
		reused, dialed := w.Proxy.ConnReuseStats()
		cr, cf, ur, uf := w.Proxy.ResumptionStats()
		hits, misses := w.Proxy.CertCacheStats()
		t.count("up_reused", reused)
		t.count("up_dialed", dialed)
		t.count("hs_resumed", cr+ur)
		t.count("hs_all", cr+cf+ur+uf)
		t.count("cert_hit", int64(hits))
		t.count("cert_miss", int64(misses))
		t.count("hs_fail", int64(w.Proxy.HandshakeFailures()))
		if w.Exporter != nil {
			for _, s := range w.Exporter.Stats() {
				t.count("published", s.Published)
				t.count("dropped", s.Dropped)
			}
		}
	}
}

// timedTap times a commit tap. seal and retract may be nil.
type timedTap struct {
	capture.Tap
	obs, seal, retract *hist
}

func (tt *timedTap) Observe(f *capture.Flow) {
	start := time.Now()
	tt.Tap.Observe(f)
	tt.obs.observe(time.Since(start))
}

func (tt *timedTap) Seal(attempt int64) {
	start := time.Now()
	tt.Tap.Seal(attempt)
	if tt.seal != nil {
		tt.seal.observe(time.Since(start))
	}
}

func (tt *timedTap) Retract(attempt int64) {
	start := time.Now()
	tt.Tap.Retract(attempt)
	if tt.retract != nil {
		tt.retract.observe(time.Since(start))
	}
}

// Reset forwards DB.Reset's optional tap reset.
func (tt *timedTap) Reset() {
	if r, ok := tt.Tap.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// timedAnalyzer times one analyzer's Observe and forwards the optional
// Sealer and Resetter extensions.
type timedAnalyzer struct {
	pipeline.Analyzer
	h *hist
}

func (ta *timedAnalyzer) Observe(f *capture.Flow) {
	start := time.Now()
	ta.Analyzer.Observe(f)
	ta.h.observe(time.Since(start))
}

func (ta *timedAnalyzer) Seal(attempt int64) {
	if s, ok := ta.Analyzer.(pipeline.Sealer); ok {
		s.Seal(attempt)
	}
}

func (ta *timedAnalyzer) Reset() {
	if r, ok := ta.Analyzer.(pipeline.Resetter); ok {
		r.Reset()
	}
}

// forwardTimer is an mitm addon registered after the taint splitter: its
// Request hook runs once the flow is committed to capture, its Response
// hook once the upstream answered, so the interval is the exchange's
// forward leg. The start map is keyed by the in-flight flow; deleted
// slots are reused, so steady state allocates nothing.
type forwardTimer struct {
	h      *hist
	mu     sync.Mutex
	starts map[*capture.Flow]time.Time
}

func (ft *forwardTimer) Request(f *capture.Flow, _ *http.Request) {
	now := time.Now()
	ft.mu.Lock()
	ft.starts[f] = now
	ft.mu.Unlock()
}

func (ft *forwardTimer) Response(f *capture.Flow, _ *http.Response) {
	ft.mu.Lock()
	start, ok := ft.starts[f]
	delete(ft.starts, f)
	ft.mu.Unlock()
	if ok {
		ft.h.observe(time.Since(start))
	}
}

// timedPublisher times each sink batch publish and records it as a
// coarse span under the rep.
type timedPublisher struct {
	sink.Publisher
	t *tracer
	h *hist
}

func (tp *timedPublisher) Publish(batch []sink.Envelope) error {
	s := tp.t.start("sink.batch", tp.t.repSpan, "sink", tp.Publisher.Name())
	err := tp.Publisher.Publish(batch)
	tp.h.observe(tp.t.end(s))
	return err
}

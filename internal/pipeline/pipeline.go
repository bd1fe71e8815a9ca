// Package pipeline is the streaming analysis plane of the measurement
// stack. A Pipeline is registered as the commit tap on the capture
// databases: every committed flow is fanned out, in commit order, to a
// set of registered Analyzers which fold it into incremental state.
// The capture DB is the attempt quarantine: a navigation attempt's
// flows reach the tap only once the attempt seals, and a faulted
// attempt's flows never do, so an analyzer is a plain fold over
// committed history with nothing to undo. An analyzer's Finalize
// output must not depend on whether its flows arrived live or from
// analysis.Suite.Replay of the stored databases.
//
// Flows arrive one at a time (Observe) or as a committed batch
// (ObserveAll). Both run the same fold on the calling goroutine, flow
// by flow, unless the batch holds at least one chunk of flows. A long
// batch is folded chunk by chunk, and each chunk is split by analyzer
// across GOMAXPROCS lanes, the caller's included: a lane folds the
// whole chunk into one analyzer before it takes the next, longest
// analyzer first. Every analyzer therefore sees the flows in commit
// order, and the results do not depend on GOMAXPROCS.
package pipeline

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/obs"
)

// Analyzer is an incremental analysis folded over the committed flow
// stream. Observe is called once per committed flow, from the
// committing goroutine (so it must be safe for concurrent use).
// Finalize returns the analysis result; it must be a pure function of
// the multiset of observed flows.
type Analyzer interface {
	Observe(f *capture.Flow)
	Finalize() any
}

// Sealer is optionally implemented by analyzers that want the
// after-the-fact notice that an attempt sealed (its flows have all
// been observed). No suite analyzer needs it.
type Sealer interface {
	Seal(attempt int64)
}

// Resetter is optionally implemented by analyzers that can drop all
// accumulated state, mirroring capture.DB.Reset.
type Resetter interface {
	Reset()
}

func init() {
	obs.Default.Help("pipeline_observed_total", "Flows observed by each streaming analyzer.")
	obs.Default.Help("pipeline_observe_seconds", "Per-flow observe latency of each streaming analyzer, sampled: the first flow and every 64th after it, or the per-flow mean of each chunk a long batch is folded in.")
	obs.Default.Help("pipeline_retractions_total", "Attempts quarantined while each streaming analyzer was registered (their flows never reached it).")
	obs.Default.Help("pipeline_analyzers", "Analyzers currently registered on the streaming pipeline.")
}

// observeBuckets spans 1µs .. ~262ms, the plausible range for a
// per-flow incremental fold.
var observeBuckets = obs.ExponentialBuckets(1e-6, 4, 10)

// timeEvery is the latency sampling stride: the pipeline times the
// first flow and every timeEvery-th after it, because a clock pair
// plus a histogram observe per analyzer cost more than most analyzers'
// folds. Counters stay exact; only pipeline_observe_seconds is sampled.
const timeEvery = 64

// chunk is the batch fold's unit. A batch shorter than one chunk folds
// flow by flow on the calling goroutine; a longer one is folded a
// chunk at a time in parallel lanes, with one clock pair per analyzer
// per chunk. A chunk's flows stay cache-warm while the lanes sweep it.
const chunk = 1024

type entry struct {
	name      string
	a         Analyzer
	observed  *obs.Counter
	retracted *obs.Counter
	latency   *obs.Histogram
}

// Pipeline fans committed flows out to registered analyzers in
// registration order. It implements capture.Tap.
type Pipeline struct {
	mu      sync.RWMutex
	entries []*entry
	gauge   *obs.Gauge
	seq     atomic.Uint64 // flows observed, for latency sampling
}

// New returns an empty pipeline.
func New() *Pipeline {
	return &Pipeline{gauge: obs.Default.Gauge("pipeline_analyzers")}
}

// Register appends an analyzer under the given name. Names are used
// for metric labels, Unregister and Results; registering the same name
// twice keeps both (Unregister removes all).
func (p *Pipeline) Register(name string, a Analyzer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = append(p.entries, &entry{
		name:      name,
		a:         a,
		observed:  obs.Default.Counter("pipeline_observed_total", "analyzer", name),
		retracted: obs.Default.Counter("pipeline_retractions_total", "analyzer", name),
		latency:   obs.Default.Histogram("pipeline_observe_seconds", observeBuckets, "analyzer", name),
	})
	p.gauge.Set(float64(len(p.entries)))
}

// Unregister removes every analyzer registered under name.
func (p *Pipeline) Unregister(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.entries[:0]
	for _, e := range p.entries {
		if e.name != name {
			kept = append(kept, e)
		}
	}
	p.entries = kept
	p.gauge.Set(float64(len(p.entries)))
}

// Observe feeds one committed flow to every analyzer in registration
// order. Called by the capture store from the committing goroutine.
func (p *Pipeline) Observe(f *capture.Flow) {
	one := [1]*capture.Flow{f}
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.fold(one[:])
}

// ObserveAll feeds a committed batch to every analyzer, each seeing the
// flows in slice order. A batch shorter than one chunk folds exactly as
// len(fs) Observe calls; a longer one is folded chunk by chunk in
// GOMAXPROCS lanes (see lanes). Called by the capture DB from the
// committing goroutine.
func (p *Pipeline) ObserveAll(fs []*capture.Flow) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(fs) < chunk {
		p.fold(fs)
		return
	}
	order := p.longestFirst()
	for len(fs) > 0 {
		n := min(chunk, len(fs))
		lanes(order, fs[:n])
		fs = fs[n:]
	}
}

// fold hands each flow to every analyzer in registration order on the
// calling goroutine. The first flow and every timeEvery-th after it
// are timed.
func (p *Pipeline) fold(fs []*capture.Flow) {
	for _, f := range fs {
		if p.seq.Add(1)%timeEvery != 1 {
			for _, e := range p.entries {
				e.a.Observe(f)
				e.observed.Inc()
			}
			continue
		}
		for _, e := range p.entries {
			start := time.Now()
			e.a.Observe(f)
			e.latency.Observe(time.Since(start).Seconds())
			e.observed.Inc()
		}
	}
}

// longestFirst orders the analyzers by their mean observed latency,
// longest first (ties keep registration order), so the lanes start on
// the analyzers that would otherwise finish a chunk last.
func (p *Pipeline) longestFirst() []*entry {
	order := append([]*entry(nil), p.entries...)
	mean := make(map[*entry]float64, len(order))
	for _, e := range order {
		if n := e.latency.Count(); n > 0 {
			mean[e] = e.latency.Sum() / float64(n)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return mean[order[i]] > mean[order[j]] })
	return order
}

// lanes folds one chunk into every analyzer of order, on GOMAXPROCS
// goroutines including the caller. Each lane takes the next analyzer
// in order and folds the whole chunk into it, timed by one clock pair,
// so an analyzer sees the chunk in order and on one goroutine.
func lanes(order []*entry, c []*capture.Flow) {
	var next atomic.Int64
	lane := func() {
		for i := next.Add(1) - 1; i < int64(len(order)); i = next.Add(1) - 1 {
			e := order[i]
			start := time.Now()
			for _, f := range c {
				e.a.Observe(f)
			}
			e.latency.Observe(time.Since(start).Seconds() / float64(len(c)))
			e.observed.Add(int64(len(c)))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane()
		}()
	}
	lane()
	wg.Wait()
}

// Retract counts a quarantined attempt against every analyzer. There
// is nothing to undo: the capture DB dropped the attempt's flows before
// any analyzer saw them.
func (p *Pipeline) Retract(attempt int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		e.retracted.Inc()
	}
}

// Seal passes the attempt's seal notice to every Sealer.
func (p *Pipeline) Seal(attempt int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		if s, ok := e.a.(Sealer); ok {
			s.Seal(attempt)
		}
	}
}

// Reset drops accumulated state on every analyzer that supports it.
func (p *Pipeline) Reset() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		if r, ok := e.a.(Resetter); ok {
			r.Reset()
		}
	}
}

// Results finalizes every registered analyzer, keyed by name.
func (p *Pipeline) Results() map[string]any {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]any, len(p.entries))
	for _, e := range p.entries {
		out[e.name] = e.a.Finalize()
	}
	return out
}

// Names lists registered analyzers in registration order.
func (p *Pipeline) Names() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.name
	}
	return out
}

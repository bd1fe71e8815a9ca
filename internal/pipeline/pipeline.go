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
// (ObserveAll). The caller folds a batch analyzer by analyzer: each
// analyzer takes the whole batch, in slice order, before the next
// analyzer starts, so it sees a batch's flows in commit order. An
// analyzer that implements BatchAnalyzer takes the whole batch in one
// ObserveAll call, so it can lock once and resolve per-browser state
// once per run of same-browser flows; any other analyzer takes it one
// Observe at a time. Batches may arrive
// concurrently from several committing goroutines (a crawl's parallel
// attempt seals, the population engine's per-visit commits) and
// interleave at each analyzer, so an analyzer's result must not depend
// on the order of its flows. The pipeline starts no goroutine of its
// own.
package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/obs"
)

// Analyzer is an incremental analysis folded over the committed flow
// stream. Observe is called with one committed flow, from the
// committing goroutine; several committing goroutines may call it at
// once, so it must be safe for concurrent use. Finalize returns the
// analysis result; it must be a pure function of the multiset of
// observed flows.
type Analyzer interface {
	Observe(f *capture.Flow)
	Finalize() any
}

// BatchAnalyzer is optionally implemented by analyzers that fold a
// committed batch in one call. ObserveAll must leave the analyzer
// where one Observe per flow of fs, in order, would; it is called
// under the same concurrency as Observe and must not keep fs.
type BatchAnalyzer interface {
	Analyzer
	ObserveAll(fs []*capture.Flow)
}

// Fold hands fs to a in slice order: in one ObserveAll call when a is
// a BatchAnalyzer, one Observe per flow otherwise. The pipeline folds
// each committed batch with it, and an offline replay folds a stored
// database with it.
func Fold(a Analyzer, fs []*capture.Flow) {
	if b, ok := a.(BatchAnalyzer); ok {
		b.ObserveAll(fs)
		return
	}
	for _, f := range fs {
		a.Observe(f)
	}
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
	obs.Default.Help("pipeline_observe_seconds", "Per-flow observe latency of each streaming analyzer, sampled: one sample per batch (or single flow) that holds the first flow or a 1024th after it, the fold's elapsed time over its flow count.")
	obs.Default.Help("pipeline_retractions_total", "Attempts quarantined while each streaming analyzer was registered (their flows never reached it).")
	obs.Default.Help("pipeline_analyzers", "Analyzers currently registered on the streaming pipeline.")
}

// observeBuckets spans 1µs .. ~262ms, the plausible range for a
// per-flow incremental fold.
var observeBuckets = obs.ExponentialBuckets(1e-6, 4, 10)

// timeEvery is the latency sampling stride. The sample points are the
// first flow and every timeEvery-th after it; a batch that holds one is
// timed whole, once per analyzer, because a clock pair plus a histogram
// observe per analyzer cost more than most analyzers' per-flow folds.
// At a stride of 64 about 78% of the population engine's ~50-flow
// visits hold a point, and its throughput was about 8% lower than at
// 1024 on a 2-vCPU host; at 1024 a 960-visit crawl (~40k flows) still
// gives each analyzer about 40 samples. Counters stay exact; only
// pipeline_observe_seconds is sampled.
const timeEvery = 1024

type entry struct {
	name      string
	a         Analyzer
	observed  *obs.Counter
	retracted *obs.Counter
	latency   *obs.Histogram
}

// Pipeline fans committed flows out to registered analyzers in
// registration order. It implements capture.Tap. Its observed counters
// are exact; its latency histogram holds one sample per timed batch,
// the batch's per-flow mean, so a sample is a mean over up to a whole
// batch, not one flow's latency.
type Pipeline struct {
	mu      sync.RWMutex
	entries []*entry
	gauge   *obs.Gauge
	seq     atomic.Uint64 // flows observed, numbering the sample points
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
// order, through its Observe. It draws one number from the pipeline's
// flow sequence and is timed, alone, when that number is a sample
// point. It does not wrap f in a batch of one for ObserveAll: a slice
// handed on to a BatchAnalyzer escapes, so the wrapper would cost an
// allocation per flow.
func (p *Pipeline) Observe(f *capture.Flow) {
	timed := p.seq.Add(1)%timeEvery == 1
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		if timed {
			start := time.Now()
			e.a.Observe(f)
			e.record(start, 1)
		} else {
			e.a.Observe(f)
		}
		e.observed.Inc()
	}
}

// ObserveAll folds a committed batch on the calling goroutine, analyzer
// by analyzer in registration order, each taking the whole batch in one
// Fold. The batch draws len(fs) numbers from the pipeline's flow
// sequence at once; if one of them is a sample point (1 mod timeEvery),
// each analyzer's fold is timed and the batch's per-flow mean is
// recorded as one sample. Each analyzer's observed counter moves once
// per batch. Safe for concurrent batches.
func (p *Pipeline) ObserveAll(fs []*capture.Flow) {
	if len(fs) == 0 {
		return
	}
	// Flow j of the batch has sequence number base+1+j, so the first
	// sample point in it, if any, is j = -base mod timeEvery.
	base := p.seq.Add(uint64(len(fs))) - uint64(len(fs))
	timed := int((timeEvery-base%timeEvery)%timeEvery) < len(fs)
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		if timed {
			start := time.Now()
			Fold(e.a, fs)
			e.record(start, len(fs))
		} else {
			Fold(e.a, fs)
		}
		e.observed.Add(int64(len(fs)))
	}
}

// record adds one latency sample: the per-flow mean of a fold of n
// flows that began at start.
func (e *entry) record(start time.Time, n int) {
	e.latency.Observe(time.Since(start).Seconds() / float64(n))
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

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
// analyzer that implements BatchAnalyzer takes the flows between two
// latency samples in one ObserveAll call, so it can lock once and
// resolve per-browser state once per run of same-browser flows; any
// other analyzer takes them one Observe at a time. Batches may arrive
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
// under the same concurrency as Observe and must not keep fs. The
// pipeline still hands a sampled flow to Observe alone, to time it.
type BatchAnalyzer interface {
	Analyzer
	ObserveAll(fs []*capture.Flow)
}

// Fold hands fs to a in slice order: in one ObserveAll call when a is
// a BatchAnalyzer, one Observe per flow otherwise. The pipeline folds
// the flows between latency samples with it, and an offline replay
// folds a stored database with it.
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
	obs.Default.Help("pipeline_observe_seconds", "Per-flow observe latency of each streaming analyzer, sampled: the first flow and every 64th after it.")
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
// order, through its Observe. It draws one number from the pipeline's
// flow sequence, as ObserveAll does for each flow of a batch. It does
// not wrap f in a batch of one for ObserveAll: a slice handed on to a
// BatchAnalyzer escapes, so the wrapper would cost an allocation per
// flow.
func (p *Pipeline) Observe(f *capture.Flow) {
	timed := p.seq.Add(1)%timeEvery == 1
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		if timed {
			e.timed(f)
		} else {
			e.a.Observe(f)
		}
		e.observed.Inc()
	}
}

// ObserveAll folds a committed batch on the calling goroutine, analyzer
// by analyzer in registration order, each taking the flows in slice
// order. The batch draws len(fs) numbers from the pipeline's flow
// sequence at once; a flow whose number is 1 mod timeEvery is timed
// alone at every analyzer, and the flows between two timed ones are
// folded as one segment (Fold). Each analyzer's observed counter moves
// once per batch. Safe for concurrent batches.
func (p *Pipeline) ObserveAll(fs []*capture.Flow) {
	if len(fs) == 0 {
		return
	}
	// Flow j of the batch has sequence number base+1+j, so the timed
	// flows are j = -base mod timeEvery, then every timeEvery-th.
	base := p.seq.Add(uint64(len(fs))) - uint64(len(fs))
	first := int((timeEvery - base%timeEvery) % timeEvery)
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		j := 0
		for t := first; t < len(fs); t += timeEvery {
			if j < t {
				Fold(e.a, fs[j:t])
			}
			e.timed(fs[t])
			j = t + 1
		}
		if j < len(fs) {
			Fold(e.a, fs[j:])
		}
		e.observed.Add(int64(len(fs)))
	}
}

// timed observes one sampled flow and records its latency.
func (e *entry) timed(f *capture.Flow) {
	start := time.Now()
	e.a.Observe(f)
	e.latency.Observe(time.Since(start).Seconds())
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

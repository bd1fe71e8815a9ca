package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"panoptes/internal/capture"
	"panoptes/internal/obs"
)

// countAnalyzer counts flows per browser — the smallest possible
// incremental analyzer.
type countAnalyzer struct {
	mu     sync.Mutex
	counts map[string]int
}

func newCountAnalyzer() *countAnalyzer {
	return &countAnalyzer{counts: make(map[string]int)}
}

func (a *countAnalyzer) Observe(f *capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts[f.Browser]++
}

func (a *countAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts = make(map[string]int)
}

func (a *countAnalyzer) Finalize() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

type nopAnalyzer struct{}

func (nopAnalyzer) Observe(*capture.Flow) {}
func (nopAnalyzer) Finalize() any         { return nil }

func flow(browser string) *capture.Flow {
	return &capture.Flow{Browser: browser}
}

func TestRegisterUnregisterReset(t *testing.T) {
	p := New()
	a := newCountAnalyzer()
	p.Register("count", a)
	if names := p.Names(); len(names) != 1 || names[0] != "count" {
		t.Fatalf("names = %v", names)
	}
	p.Observe(flow("Chrome"))
	p.Reset()
	if got := a.Finalize().(map[string]int); len(got) != 0 {
		t.Fatalf("after reset: %v", got)
	}
	p.Unregister("count")
	p.Observe(flow("Chrome"))
	if got := a.Finalize().(map[string]int); len(got) != 0 {
		t.Fatalf("unregistered analyzer still observed: %v", got)
	}
	if res := p.Results(); len(res) != 0 {
		t.Fatalf("results after unregister: %v", res)
	}
}

// TestObserveSamplesLatencyKeepsCountsExact: the latency histogram
// times the first flow and every timeEvery-th after it, while
// pipeline_observed_total and the results see every flow. obs.Default
// is process-global, so the test reads deltas.
func TestObserveSamplesLatencyKeepsCountsExact(t *testing.T) {
	const n = 3*timeEvery + 5
	names := []string{"sampling-a", "sampling-b"}
	observed := func(name string) int64 {
		return obs.Default.Counter("pipeline_observed_total", "analyzer", name).Value()
	}
	timed := func(name string) int64 {
		return obs.Default.Histogram("pipeline_observe_seconds", observeBuckets, "analyzer", name).Count()
	}
	observed0, timed0 := map[string]int64{}, map[string]int64{}
	p := New()
	for _, name := range names {
		observed0[name], timed0[name] = observed(name), timed(name)
		p.Register(name, newCountAnalyzer())
	}
	ref := newCountAnalyzer()
	browsers := []string{"Chrome", "Yandex", "Opera"}
	for i := 1; i <= n; i++ {
		f := flow(browsers[i%len(browsers)])
		p.Observe(f)
		ref.Observe(f)
		for _, name := range names {
			if got, want := timed(name)-timed0[name], int64((i+timeEvery-1)/timeEvery); got != want {
				t.Fatalf("%s after %d flows: %d timed, want %d", name, i, got, want)
			}
			if got := observed(name) - observed0[name]; got != int64(i) {
				t.Fatalf("%s after %d flows: observed_total delta %d", name, i, got)
			}
		}
	}
	want := ref.Finalize()
	for name, got := range p.Results() {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s result %v, want %v", name, got, want)
		}
	}
}

// TestObserveDoesNotAllocate: dispatch, the exact counters and the
// sampled timing add no allocation to an analyzer's own.
func TestObserveDoesNotAllocate(t *testing.T) {
	p := New()
	p.Register("alloc-free", nopAnalyzer{})
	f := flow("Chrome")
	if n := testing.AllocsPerRun(4*timeEvery, func() { p.Observe(f) }); n != 0 {
		t.Fatalf("Observe allocates %.2f times per flow", n)
	}
}

// segmentAnalyzer records every flow it folds, the length of each
// ObserveAll call and how many flows came through Observe.
type segmentAnalyzer struct {
	mu     sync.Mutex
	ids    []int64
	single int
	calls  []int
}

func (a *segmentAnalyzer) Observe(f *capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ids = append(a.ids, f.ID)
	a.single++
}

func (a *segmentAnalyzer) ObserveAll(fs []*capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range fs {
		a.ids = append(a.ids, f.ID)
	}
	a.calls = append(a.calls, len(fs))
}

func (a *segmentAnalyzer) Finalize() any { return nil }

// TestBatchAnalyzerSegments: a BatchAnalyzer takes each batch whole in
// one ObserveAll call, and each single flow through Observe. Across
// batch boundaries every flow is folded exactly once in commit order,
// pipeline_observed_total stays exact, and the histogram gets one
// sample per batch or single flow that holds a sample point (a flow
// numbered 1 mod timeEvery), however many points the batch holds.
func TestBatchAnalyzerSegments(t *testing.T) {
	const name = "batch-segments"
	observed0 := obs.Default.Counter("pipeline_observed_total", "analyzer", name).Value()
	h := obs.Default.Histogram("pipeline_observe_seconds", observeBuckets, "analyzer", name)
	timed0 := h.Count()
	p := New()
	a := &segmentAnalyzer{}
	p.Register(name, a)

	// A step is a batch of that many flows through ObserveAll, or -1 for
	// one flow through Observe. Flow timeEvery+1 is a single flow; the
	// batch of 3*timeEvery+7 holds three or four sample points.
	var id int64
	var wantCalls []int
	wantSingle := 0     // flows the analyzer should take through its Observe
	var wantTimed int64 // batches and single flows holding a sample point
	points := 0         // sample points folded
	for _, n := range []int{1, timeEvery - 1, -1, timeEvery, timeEvery + 1, -1, 1, 2*timeEvery - 1, 0, 200, 3, 3*timeEvery + 7, -1, 1} {
		if n < 0 {
			id++
			p.Observe(&capture.Flow{ID: id})
			wantSingle++
			if id%timeEvery == 1 {
				wantTimed++
				points++
			}
		} else {
			batch := make([]*capture.Flow, n)
			sampled := false
			for i := range batch {
				id++
				batch[i] = &capture.Flow{ID: id}
				if id%timeEvery == 1 {
					sampled = true
					points++
				}
			}
			if sampled {
				wantTimed++
			}
			if n > 0 {
				wantCalls = append(wantCalls, n)
			}
			p.ObserveAll(batch)
		}
		if got := obs.Default.Counter("pipeline_observed_total", "analyzer", name).Value() - observed0; got != id {
			t.Fatalf("after %d flows: observed_total delta %d", id, got)
		}
		if got := h.Count() - timed0; got != wantTimed {
			t.Fatalf("after %d flows: %d samples, want %d (one per batch holding a sample point)", id, got, wantTimed)
		}
		if a.single != wantSingle {
			t.Fatalf("after %d flows: %d flows through Observe, want %d", id, a.single, wantSingle)
		}
		if !reflect.DeepEqual(a.calls, wantCalls) {
			t.Fatalf("after %d flows: ObserveAll calls of %v flows, want one per batch: %v", id, a.calls, wantCalls)
		}
	}
	if len(a.ids) != int(id) {
		t.Fatalf("folded %d flows, want %d", len(a.ids), id)
	}
	for i, got := range a.ids {
		if got != int64(i+1) {
			t.Fatalf("fold %d took flow %d, want %d (a flow skipped, repeated or out of order)", i, got, i+1)
		}
	}
	if int64(points) <= wantTimed {
		t.Fatalf("%d sample points in %d timed folds: no batch held two", points, wantTimed)
	}
}

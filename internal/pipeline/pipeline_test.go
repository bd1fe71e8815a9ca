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

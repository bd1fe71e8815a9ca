package pipeline

import (
	"sync"
	"testing"

	"panoptes/internal/capture"
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

package popsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// rssSampler polls the Go heap at 20 ms intervals and keeps the peak
// resident estimate (Sys minus pages already returned to the OS) —
// the bound the population engine is designed to hold flat while the
// user count grows by orders of magnitude.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		var peak float64
		var ms runtime.MemStats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if mb := float64(ms.Sys-ms.HeapReleased) / 1e6; mb > peak {
				peak = mb
			}
			select {
			case <-s.stop:
				s.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

// BenchmarkPopulationScaling drives the session engine across three
// population sizes on the full analysis plane under retain=none. The
// paper-scale claim is the pair of reported metrics: sessions/sec
// stays flat (the event loop is O(events), not O(users)) and peak RSS
// stays bounded while the population grows 100×.
func BenchmarkPopulationScaling(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := newPopHarness(b, func(c *Config) {
					c.Population = n
					c.Duration = 30 * time.Second
					c.RampUp = 30 * time.Second
					// Admission scaled so the whole population gets its
					// first session inside the window at every size.
					c.AdmitPerSec = float64(n) / 15
					c.SampleEvery = 256
					c.Parallelism = runtime.GOMAXPROCS(0)
				})
				runtime.GC()
				sampler := startRSSSampler()
				start := time.Now()
				if err := h.engine.Run(); err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start).Seconds()
				peak := sampler.peakMB()
				s := h.engine.Stats()
				if s.ArrivedUsers == 0 || s.Sessions == 0 {
					b.Fatalf("degenerate run: %+v", s)
				}
				if resident := h.db.Engine.Len() + h.db.Native.Len(); resident != 0 {
					b.Fatalf("retain=none left %d flows resident", resident)
				}
				b.ReportMetric(float64(s.Sessions)/elapsed, "sessions/sec")
				b.ReportMetric(peak, "peak_rss_mb")
				b.ReportMetric(float64(s.FlowsCommitted)/elapsed, "flows/sec")
			}
		})
	}
}

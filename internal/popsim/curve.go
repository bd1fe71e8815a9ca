package popsim

import (
	"sync"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
)

// Curve is the population's Figure-5-style phone-home timeline: native
// requests binned by virtual time per browser, finalized to the same
// analysis.Fig5Series the idle experiment renders. It implements
// pipeline.Analyzer and its state is bounded by
// browsers × bins + distinct destination domains — independent of the
// population size, which is what lets a million-user run keep it on
// the commit tap under -retain=none.
type Curve struct {
	browsers []string
	start    time.Time
	binSecs  int
	nBins    int

	mu    sync.Mutex
	bins  map[string][]int          // browser -> per-bin native request count
	dests map[string]map[string]int // browser -> registrable domain -> count
	total map[string]int
}

// NewCurve builds a curve over the run window [start, start+duration).
func NewCurve(browsers []string, start time.Time, duration time.Duration, binSeconds int) *Curve {
	if binSeconds <= 0 {
		binSeconds = 10
	}
	n := int(duration.Seconds()) / binSeconds
	if n <= 0 {
		n = 1
	}
	return &Curve{
		browsers: append([]string(nil), browsers...),
		start:    start, binSecs: binSeconds, nBins: n,
		bins:  map[string][]int{},
		dests: map[string]map[string]int{},
		total: map[string]int{},
	}
}

// Observe folds one committed native flow into its time bin.
func (c *Curve) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative {
		return
	}
	off := int(f.Time.Sub(c.start).Seconds()) / c.binSecs
	if off < 0 {
		return
	}
	if off >= c.nBins {
		off = c.nBins - 1
	}
	dom := hostlist.RegistrableDomain(f.Host)
	c.mu.Lock()
	defer c.mu.Unlock()
	b := f.Browser
	if c.bins[b] == nil {
		c.bins[b] = make([]int, c.nBins)
	}
	c.bins[b][off]++
	if c.dests[b] == nil {
		c.dests[b] = map[string]int{}
	}
	c.dests[b][dom]++
	c.total[b]++
}

// Reset drops all bins (pipeline.Resetter).
func (c *Curve) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bins = map[string][]int{}
	c.dests = map[string]map[string]int{}
	c.total = map[string]int{}
}

// Series assembles the per-browser cumulative timelines in fleet order.
func (c *Curve) Series() []analysis.Fig5Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]analysis.Fig5Series, 0, len(c.browsers))
	for _, b := range c.browsers {
		s := analysis.Fig5Series{
			Browser: b, BinSeconds: c.binSecs,
			Cumulative: make([]int, c.nBins),
			DestShares: map[string]float64{},
			Total:      c.total[b],
		}
		running := 0
		for i := 0; i < c.nBins; i++ {
			if bins := c.bins[b]; bins != nil {
				running += bins[i]
			}
			s.Cumulative[i] = running
		}
		for d, n := range c.dests[b] {
			if s.Total > 0 {
				s.DestShares[d] = 100 * float64(n) / float64(s.Total)
			}
		}
		out = append(out, s)
	}
	return out
}

// Finalize implements pipeline.Analyzer.
func (c *Curve) Finalize() any { return c.Series() }

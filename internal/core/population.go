// Population campaigns: instead of driving the 15 browser emulators
// through the proxy, the world hands its data plane (capture DB, commit
// tap, streaming analyses, virtual clock, fault plan) to the popsim
// event engine, which synthesizes the traffic of very large user
// populations directly into it. The analyses cannot tell the planes
// apart — same flow shapes, same origins, same attributes — which is
// the point: the paper's figures computed over a million users.
package core

import (
	"fmt"
	"time"

	"panoptes/internal/popsim"
	"panoptes/internal/profiles"
)

// PopulationConfig sizes a population campaign on an assembled world.
type PopulationConfig struct {
	Population int
	Duration   time.Duration
	Seed       int64

	// AdmitPerSec / AdmitBurst tune session admission (0 = popsim
	// defaults). Parallelism is the number of goroutines that
	// synthesize and commit visits; results are identical at any
	// setting.
	AdmitPerSec float64
	AdmitBurst  int
	Parallelism int
	// RampUp spreads user arrivals (0 = Duration).
	RampUp time.Duration
	// SampleEvery / SampleCap tune VisitURL head-sampling (0 = defaults).
	SampleEvery int
	SampleCap   int
	// BinSeconds bins the population phone-home curve (0 = 10 s).
	BinSeconds int
	// MeanSessionGap is the base inter-session pause (0 = 2 m).
	MeanSessionGap time.Duration
}

// PopulationCurveName is the pipeline registration of the population
// phone-home timeline analyzer.
const PopulationCurveName = "population-curve"

// NewPopulation builds a population engine wired to the world's data
// plane and registers its phone-home curve on the commit tap. The
// caller drives it with Run or RunUntil; results land in w.Pipeline
// and w.Suite like any campaign's. Population runs should assemble the
// world with Retain: capture.RetainNone so resident memory stays
// bounded by analyzer state, not traffic volume.
func (w *World) NewPopulation(cfg PopulationConfig) (*popsim.Engine, error) {
	// Fleet in suite order (the Browsers map is unordered).
	var fleet []*profiles.Profile
	uids := make(map[string]int)
	for _, name := range w.Suite.Names() {
		p := profiles.ByName(name)
		if p == nil {
			return nil, fmt.Errorf("core: population: unknown profile %q", name)
		}
		fleet = append(fleet, p)
		if b, ok := w.Browsers[name]; ok {
			uids[name] = b.UID()
		}
	}
	e, err := popsim.New(popsim.Config{
		Population:     cfg.Population,
		Duration:       cfg.Duration,
		Seed:           cfg.Seed,
		Profiles:       fleet,
		Sites:          w.Sites,
		Hostlist:       w.Hostlist,
		DB:             w.DB,
		Clock:          w.Clock,
		Faults:         w.Faults,
		BrowserUIDs:    uids,
		DeviceIP:       w.Device.IP.String(),
		Rooted:         w.Device.Rooted(),
		AdmitPerSec:    cfg.AdmitPerSec,
		AdmitBurst:     cfg.AdmitBurst,
		Parallelism:    cfg.Parallelism,
		RampUp:         cfg.RampUp,
		SampleEvery:    cfg.SampleEvery,
		SampleCap:      cfg.SampleCap,
		BinSeconds:     cfg.BinSeconds,
		MeanSessionGap: cfg.MeanSessionGap,
	})
	if err != nil {
		return nil, err
	}
	w.Pipeline.Register(PopulationCurveName, e.Curve())
	return e, nil
}

// RunPopulation is the one-call form: build the engine, simulate the
// full duration, and return it for stats and curve access.
func (w *World) RunPopulation(cfg PopulationConfig) (*popsim.Engine, error) {
	e, err := w.NewPopulation(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return e, nil
}

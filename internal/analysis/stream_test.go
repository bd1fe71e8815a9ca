package analysis_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/obs"
	"panoptes/internal/pipeline"
)

// TestTrackableTieBreakComparesFields pins the last tie-break of
// TrackableAnalyzer.IDs: Browser, then Host, then Param. Compared as one
// concatenated string, ("ab", "c.example") and ("a", "bc.example") are
// equal and their order would follow map iteration.
func TestTrackableTieBreakComparesFields(t *testing.T) {
	a := analysis.NewTrackableAnalyzer()
	for _, f := range []*capture.Flow{
		{Browser: "ab", Host: "c.example", RawQuery: "uuid=3929d87cfa02a9437044a54d3c0e7e6d"},
		{Browser: "a", Host: "bc.example", RawQuery: "uuid=a1b2c3d4e5f60718293a4b5c6d7e8f90"},
	} {
		f.Origin = capture.OriginNative
		a.Observe(f)
	}
	for i := 0; i < 50; i++ {
		ids := a.IDs()
		if len(ids) != 2 {
			t.Fatalf("ids = %+v", ids)
		}
		if ids[0].Browser != "a" || ids[1].Browser != "ab" {
			t.Fatalf("call %d: order %s/%s, %s/%s; want a first", i,
				ids[0].Browser, ids[0].Host, ids[1].Browser, ids[1].Host)
		}
	}
}

// TestTrackableValuesAndSightings folds a rotated identifier: values
// are kept per browser, host and parameter and reported sorted (the
// rotated-in id2 is fed first), a sighting is a flow whose hits name
// the parameter, counted once even when the flow names it in both its
// query and its body, and short or non-hex values are not identifiers.
func TestTrackableValuesAndSightings(t *testing.T) {
	id1 := "a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f90"
	id2 := "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
	a := analysis.NewTrackableAnalyzer()
	for _, q := range []string{"uuid=" + id2, "uuid=" + id1, "uuid=" + id1, "uuid=short&clientid=not-hex-at-all!!"} {
		a.Observe(&capture.Flow{Browser: "Yandex", Host: "api.browser.yandex.ru", Origin: capture.OriginNative,
			RawQuery: "host=x.example&" + q})
	}
	a.Observe(&capture.Flow{Browser: "Yandex", Host: "api.browser.yandex.ru", Origin: capture.OriginNative,
		RawQuery: "uuid=" + id1, Body: []byte(`{"uuid":"` + id2 + `"}`)})
	ids := a.IDs()
	if len(ids) != 1 {
		t.Fatalf("ids = %+v", ids)
	}
	if got := ids[0]; got.Param != "uuid" || len(got.Values) != 2 || got.Values[0] != id1 || got.Values[1] != id2 || got.Sightings != 4 {
		t.Fatalf("id = %+v, want uuid with [id1 id2] over 4 sightings", got)
	}
}

// TestSuiteReplayMatchesLive feeds one flow mix to a suite on a live
// pipeline and replays the same stores through a fresh suite: every
// analysis must match byte for byte, and the replay must not count
// towards the pipeline's observed-flow metric.
func TestSuiteReplayMatchesLive(t *testing.T) {
	const browser = "SynthBrowser"
	_, p := transportSuite(browser)
	db := capture.NewDB()
	db.SetTap(p)
	for _, f := range benchFlows(t, browser) {
		f.ID = capture.NextFlowID()
		f.VisitURL = "https://news.example/"
		db.StoreFor(f.Origin).Add(f)
	}

	observed := obs.Default.Counter("pipeline_observed_total", "analyzer", "fig2")
	before := observed.Value()
	re := analysis.NewSuite(hostlist.New(), []string{browser})
	re.Replay(db)
	if got := observed.Value(); got != before {
		t.Errorf("replay bumped pipeline_observed_total{fig2} by %d", got-before)
	}

	lj, err := json.Marshal(p.Results())
	if err != nil {
		t.Fatal(err)
	}
	rp := pipeline.New() // registered only to finalize by name
	re.Register(rp)
	rj, err := json.Marshal(rp.Results())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Errorf("replay diverges from live:\nlive   %s\nreplay %s", lj, rj)
	}
	if rows := re.Fig2.Rows(); rows[0].Engine != 2 || rows[0].Native != 5 {
		t.Errorf("replayed fig2 = %+v, want 2 engine and 5 native flows", rows)
	}
}

// TestFig5FoldDoesNotAllocate: once a browser's bins and destinations
// exist, folding a population-shaped visit (about 50 flows of one
// browser, engine and native, runs of several hosts) resolves its bins
// and registrable domains on the stack and only adds under the lock.
func TestFig5FoldDoesNotAllocate(t *testing.T) {
	start := time.Date(2023, 5, 12, 9, 0, 0, 0, time.UTC)
	a := analysis.NewFig5Analyzer([]string{"Chrome"}, start, time.Hour, 10)
	hosts := []string{"site.example", "t.vendor.example", "api.vendor.example", "cdn.vendor.co.uk", "ad.doubleclick.net"}
	var visit []*capture.Flow
	for i := 0; i < 50; i++ {
		f := &capture.Flow{
			Browser: "Chrome", Origin: capture.OriginNative, Host: hosts[1+i/4%4],
			Time: start.Add(time.Duration(30+i) * time.Second),
		}
		if i%5 == 0 {
			f.Origin, f.Host = capture.OriginEngine, hosts[0]
		}
		visit = append(visit, f)
	}
	a.ObserveAll(visit)
	if got := a.Series()[0].Total; got != 40 {
		t.Fatalf("total = %d native flows, want 40", got)
	}
	if n := testing.AllocsPerRun(100, func() { a.ObserveAll(visit) }); n != 0 {
		t.Fatalf("ObserveAll allocates %.1f times per visit", n)
	}
}

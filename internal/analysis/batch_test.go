package analysis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/pipeline"
)

// batchBrowsers is the fleet the batch-fold tests report on. The sample
// is Chrome and Edge; Opera carries the Listing 1 exemplar. Flows of
// "Ghost" and of no browser reach every analyzer but no report row.
var batchBrowsers = []string{"Brave", "Chrome", "Edge", "Kiwi", "Opera", "Yandex"}

// fig5Start places the Figure 5 window inside the synthetic flows'
// times, so some flows fall before it.
var fig5Start = time.Date(2023, 5, 12, 9, 0, 30, 0, time.UTC)

// namedBatch is one analyzer under its suite name.
type namedBatch struct {
	name string
	a    pipeline.BatchAnalyzer
}

// elevenAnalyzers builds a fresh suite plus the Figure 5 curve: every
// analyzer the pipeline folds in batches.
func elevenAnalyzers(t *testing.T) []namedBatch {
	t.Helper()
	s := analysis.NewSuite(hostlist.Bundled(), batchBrowsers)
	var out []namedBatch
	for _, e := range []struct {
		name string
		a    pipeline.Analyzer
	}{
		{"fig2", s.Fig2}, {"fig3", s.Fig3}, {"fig4", s.Fig4}, {"table2", s.PII},
		{"leaks-native", s.LeakNative}, {"leaks-engine", s.LeakEngine}, {"dns", s.DNS},
		{"trackable", s.Trackable}, {"listing1", s.Listing1}, {"transport", s.Transport},
		{"fig5", analysis.NewFig5Analyzer(batchBrowsers, fig5Start, 10*time.Minute, 10)},
	} {
		b, ok := e.a.(pipeline.BatchAnalyzer)
		if !ok {
			t.Fatalf("%s does not fold batches", e.name)
		}
		out = append(out, namedBatch{e.name, b})
	}
	return out
}

// finalJSON encodes each analyzer's result.
func finalJSON(t *testing.T, as []namedBatch) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, e := range as {
		b, err := json.Marshal(e.a.Finalize())
		if err != nil {
			t.Fatal(err)
		}
		out[e.name] = b
	}
	return out
}

// batchFlows returns the committed results sample followed by synthetic
// visits: runs of one browser's flows with repeated hosts, an unknown
// transport tag, untagged and tagged transports, DoH resolver evidence,
// the Listing 1 exemplar, identifiers sighted across flows, and times on
// both sides of the Figure 5 window's start.
func batchFlows(t *testing.T) []*capture.Flow {
	t.Helper()
	var flows []*capture.Flow
	for _, name := range []string{"engine.sample.jsonl", "native.sample.jsonl"} {
		r, err := os.Open(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		st := capture.NewStore()
		err = st.ReadJSONL(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, st.All()...)
	}
	rng := rand.New(rand.NewSource(24))
	browsers := append(slices.Clone(batchBrowsers), "Ghost", "")
	hosts := []string{
		"api.vendor.example", "t.vendor.example", "push.vendor.example", "s-odx.oleads.com",
		"cloudflare-dns.com", "dns.google", "ad.doubleclick.net", "cdn.vendor.co.uk",
	}
	transports := []string{"", capture.TransportH1, capture.TransportH2, capture.TransportWS, capture.TransportDoH, "h3"}
	id := int64(1 << 20)
	for v := 0; v < 120; v++ {
		b := browsers[rng.Intn(len(browsers))]
		visit := fmt.Sprintf("https://site%d.example/page/%d", v%13, v%4)
		at := fig5Start.Add(time.Duration(rng.Intn(300)-60) * time.Second)
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			id++
			f := &capture.Flow{
				ID: id, Time: at.Add(time.Duration(i) * time.Second), Browser: b,
				Method: "GET", Scheme: "https", Origin: capture.OriginNative,
				Host: hosts[rng.Intn(len(hosts))], Path: "/v1/collect",
				Transport: transports[rng.Intn(len(transports))], VisitURL: visit,
				ReqBytes: 100 + rng.Intn(400), Status: 200,
			}
			if i > 0 && rng.Intn(3) == 0 { // same host as the previous flow
				f.Host = flows[len(flows)-1].Host
			}
			switch rng.Intn(6) {
			case 0:
				f.Origin, f.Host, f.Path = capture.OriginEngine, fmt.Sprintf("site%d.example", v%13), "/"
			case 1:
				f.RawQuery = fmt.Sprintf("uuid=3929d87cfa02a9437044a54d3c0e7e%02x&ref=%s", v%3, visit)
			case 2:
				f.Method = "POST"
				f.Body = []byte(fmt.Sprintf(`{"operaId":"3929d87cfa02a9437044a54d3c0e7e%02x","country":"GR","tz":"Europe/Athens"}`, v%2))
			case 3:
				f.RawQuery = fmt.Sprintf("lat=35.%d&lon=25.%d&u=%s", rng.Intn(99), rng.Intn(99), visit)
			}
			if b == "Opera" && i%7 == 3 { // several Listing 1 candidates per batch
				f.Origin, f.Method, f.Host = capture.OriginNative, "POST", "s-odx.oleads.com"
				f.Body = []byte(fmt.Sprintf(`{"channelId":"adx","seq":%d}`, id))
			}
			flows = append(flows, f)
		}
	}
	return flows
}

// splitBatches cuts fs into random batches of 1 to 80 flows; about a
// quarter are single flows.
func splitBatches(fs []*capture.Flow, rng *rand.Rand) [][]*capture.Flow {
	var out [][]*capture.Flow
	for len(fs) > 0 {
		n := 1
		if rng.Intn(4) > 0 {
			n = 1 + rng.Intn(80)
		}
		n = min(n, len(fs))
		out = append(out, fs[:n])
		fs = fs[n:]
	}
	return out
}

// batchOrders are the flow orders the differential tests fold: commit
// order, where browser and host runs are long, and a shuffle, where
// every batch mixes browsers and origins.
func batchOrders(t *testing.T) map[string][]*capture.Flow {
	flows := batchFlows(t)
	shuffled := slices.Clone(flows)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return map[string][]*capture.Flow{"in-order": flows, "shuffled": shuffled}
}

// perFlow folds fs into fresh analyzers one Observe at a time.
func perFlow(t *testing.T, fs []*capture.Flow) map[string][]byte {
	as := elevenAnalyzers(t)
	for _, e := range as {
		for _, f := range fs {
			e.a.Observe(f)
		}
	}
	return finalJSON(t, as)
}

func compareFinal(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s: batch fold differs from per-flow Observe:\n got %s\nwant %s", name, got[name], w)
		}
	}
}

// TestBatchFoldMatchesObserve: each of the eleven analyzers, fed the
// sample and the synthetic visits in random batches through ObserveAll,
// finalizes to the JSON that one Observe per flow gives.
func TestBatchFoldMatchesObserve(t *testing.T) {
	for order, fs := range batchOrders(t) {
		t.Run(order, func(t *testing.T) {
			want := perFlow(t, fs)
			as := elevenAnalyzers(t)
			for _, b := range splitBatches(fs, rand.New(rand.NewSource(3))) {
				for _, e := range as {
					e.a.ObserveAll(b)
				}
			}
			compareFinal(t, finalJSON(t, as), want)
		})
	}
}

// TestBatchFoldConcurrent: batches folded from eight goroutines at
// once, analyzer by analyzer as the pipeline folds them, finalize to the
// per-flow JSON. The batches are shuffled and each goroutine takes
// whichever is next, so any goroutine folds any browser's batches in
// any order.
func TestBatchFoldConcurrent(t *testing.T) {
	const workers = 8
	for order, fs := range batchOrders(t) {
		t.Run(order, func(t *testing.T) {
			want := perFlow(t, fs)
			as := elevenAnalyzers(t)
			rng := rand.New(rand.NewSource(5))
			batches := splitBatches(fs, rng)
			rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
			next := make(chan []*capture.Flow)
			var wg sync.WaitGroup
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for batch := range next {
						for _, e := range as {
							e.a.ObserveAll(batch)
						}
					}
				}()
			}
			for _, b := range batches {
				next <- b
			}
			close(next)
			wg.Wait()
			compareFinal(t, finalJSON(t, as), want)
		})
	}
}

// TestFoldOrderFree: every analyzer is a fold over the flow multiset.
// Twenty seeded permutations of the sample and the synthetic visits,
// each cut into random batches, finalize to the JSON of the commit-order
// per-flow fold, for all eleven analyzers. The synthetic visits send
// one identifier value under two parameters of a host, so a sighting
// count that depends on which flow came first fails here.
func TestFoldOrderFree(t *testing.T) {
	flows := batchFlows(t)
	want := perFlow(t, flows)
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := slices.Clone(flows)
			rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
			as := elevenAnalyzers(t)
			for _, b := range splitBatches(fs, rng) {
				for _, e := range as {
					e.a.ObserveAll(b)
				}
			}
			compareFinal(t, finalJSON(t, as), want)
		})
	}
}

package leak

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"panoptes/internal/capture"
)

// naiveScanOne replicates the pre-engine per-flow search verbatim: a
// freshly built haystack string (including the duplicate unescaped
// query) probed with strings.Contains per representation, cheapest
// encoding first, full URL before domain-only. The automaton path must
// be byte-identical to this.
func naiveScanOne(d *Detector, f *capture.Flow) (Finding, bool) {
	if f.VisitURL == "" {
		return Finding{}, false
	}
	vu, err := url.Parse(f.VisitURL)
	if err != nil {
		return Finding{}, false
	}
	visitHost := vu.Hostname()
	if f.Host == visitHost {
		return Finding{}, false
	}
	var sb strings.Builder
	sb.WriteString(f.Path)
	sb.WriteByte('\n')
	sb.WriteString(f.RawQuery)
	sb.WriteByte('\n')
	if unescaped, err := url.QueryUnescape(f.RawQuery); err == nil {
		sb.WriteString(unescaped)
		sb.WriteByte('\n')
	}
	sb.Write(f.Body)
	hay := sb.String()

	search := func(value string) (Encoding, bool) {
		reps := representations(value, d.Encodings)
		for _, enc := range encodingOrder {
			for _, rep := range reps[enc] {
				if rep != "" && strings.Contains(hay, rep) {
					return enc, true
				}
			}
		}
		return "", false
	}
	if enc, ok := search(f.VisitURL); ok {
		return Finding{
			Browser: f.Browser, Host: f.Host, Kind: KindFullURL,
			Encoding: enc, VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
		}, true
	}
	if strings.Contains(visitHost, ".") {
		if enc, ok := search(visitHost); ok {
			return Finding{
				Browser: f.Browser, Host: f.Host, Kind: KindDomainOnly,
				Encoding: enc, VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
			}, true
		}
	}
	return Finding{}, false
}

// leakFlows builds a mixed corpus over n visits: clean flows, full-URL
// and domain-only leaks under several encodings, same-host traffic and
// unparseable visit URLs.
func leakFlows(n int, rng *rand.Rand) []*capture.Flow {
	visits := make([]string, n)
	for i := range visits {
		visits[i] = fmt.Sprintf("https://site-%04d.example/landing/%d?utm=abc", i, i)
	}
	var flows []*capture.Flow
	id := int64(0)
	add := func(f *capture.Flow) {
		id++
		f.ID = id
		f.Browser = fmt.Sprintf("browser-%d", id%3)
		flows = append(flows, f)
	}
	for i, visit := range visits {
		host := fmt.Sprintf("site-%04d.example", i)
		// Clean telemetry flow: no leak.
		add(&capture.Flow{
			Host: "telemetry.vendor.test", Path: "/ping", VisitURL: visit,
			RawQuery: "v=1&t=pageview", Body: []byte(`{"ok":true}`),
		})
		switch i % 6 {
		case 0: // plain full URL in query
			add(&capture.Flow{
				Host: "collector.vendor.test", Path: "/c", VisitURL: visit,
				RawQuery: "u=" + visit,
			})
		case 1: // percent-escaped full URL
			add(&capture.Flow{
				Host: "collector.vendor.test", Path: "/c", VisitURL: visit,
				RawQuery: "u=" + url.QueryEscape(visit),
			})
		case 2: // base64 full URL in the body
			add(&capture.Flow{
				Host: "collector.vendor.test", Path: "/c", VisitURL: visit,
				Body: []byte(`{"page":"` + base64.StdEncoding.EncodeToString([]byte(visit)) + `"}`),
			})
		case 3: // domain only, plain
			add(&capture.Flow{
				Host: "ads.vendor.test", Path: "/imp", VisitURL: visit,
				RawQuery: "ref=" + host,
			})
		case 4: // same-host traffic: never a finding
			add(&capture.Flow{
				Host: host, Path: "/asset.js", VisitURL: visit,
				RawQuery: "u=" + visit,
			})
		case 5: // domain inside a larger token
			add(&capture.Flow{
				Host: "cdn.vendor.test", Path: "/px", VisitURL: visit,
				Body: []byte("referrer=https://" + host + "/other"),
			})
		}
		if rng.Intn(4) == 0 { // unparseable visit URL: skipped by both paths
			add(&capture.Flow{
				Host: "x.test", Path: "/", VisitURL: "https://bad.test/\x01",
				RawQuery: "u=" + visit,
			})
		}
	}
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	return flows
}

// TestEngineMatchesNaiveReference is the PR's equivalence keystone:
// streaming scans through the automaton must reproduce the pre-engine
// Contains-loop findings byte for byte, flow by flow, for both the
// plain-only and the full encoding set.
func TestEngineMatchesNaiveReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		encs EncodingSet
	}{
		{"plain-only", PlainOnly()},
		{"all-encodings", AllEncodings()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			flows := leakFlows(60, rng)
			det := &Detector{Encodings: tc.encs}
			ref := &Detector{Encodings: tc.encs}
			s := NewStreamScanner(det, capture.OriginNative)
			for _, f := range flows {
				got, gotOK := s.scanOne(f)
				want, wantOK := naiveScanOne(ref, f)
				if gotOK != wantOK || got != want {
					t.Fatalf("flow %d (host %s): engine (%+v, %v) != naive (%+v, %v)",
						f.ID, f.Host, got, gotOK, want, wantOK)
				}
			}
		})
	}
}

// TestBatchScanMatchesNaive drives a scanner's Observe over a batch of
// flows and compares its full sorted finding set against the naive
// reference.
func TestBatchScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flows := leakFlows(40, rng)
	got := scan(NewDetector(), flows...)

	ref := NewDetector()
	var want []Finding
	for _, f := range flows {
		if fnd, ok := naiveScanOne(ref, f); ok {
			want = append(want, fnd)
		}
	}
	sortFindings(want)

	if len(got) != len(want) {
		t.Fatalf("engine found %d leaks, naive found %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("finding %d differs:\nengine %+v\nnaive  %+v", i, got[i], want[i])
		}
	}
	if len(got) == 0 {
		t.Fatal("corpus produced no findings; test is vacuous")
	}
}

// TestConcurrentFirstSight: 8 goroutines scan differently shuffled
// copies of one corpus through one Detector, so most visits are first
// seen, and compiled, by several goroutines at once. Every flow's
// finding must still equal the naive reference. ci.sh runs the leak
// package under -race.
func TestConcurrentFirstSight(t *testing.T) {
	flows := leakFlows(100, rand.New(rand.NewSource(3)))
	type result struct {
		fnd Finding
		ok  bool
	}
	ref := NewDetector()
	want := make(map[*capture.Flow]result, len(flows))
	for _, f := range flows {
		fnd, ok := naiveScanOne(ref, f)
		want[f] = result{fnd, ok}
	}

	det := NewDetector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := slices.Clone(flows)
		rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range order {
				fnd, ok := det.ScanFlow(f)
				if w := want[f]; ok != w.ok || fnd != w.fnd {
					t.Errorf("goroutine %d, flow %d: engine (%+v, %v) != naive (%+v, %v)", g, f.ID, fnd, ok, w.fnd, w.ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedPatternReportsFirstEncoding: when two encodings of a value
// render the same pattern, the visit's automaton holds it once, and a
// hit reports the encoding that comes first in encodingOrder.
func TestSharedPatternReportsFirstEncoding(t *testing.T) {
	const visit = "visit-abc"
	b64 := base64.StdEncoding.EncodeToString([]byte(visit))
	if b64 != base64.URLEncoding.EncodeToString([]byte(visit)) || url.QueryEscape(visit) != visit {
		t.Fatalf("%q must have one Base64 form and need no escaping", visit)
	}
	f := &capture.Flow{
		ID: 1, Browser: "B", Host: "collector.vendor.test", Path: "/c",
		VisitURL: visit, RawQuery: "p=" + b64,
	}
	fnd, ok := NewDetector().ScanFlow(f)
	if !ok || fnd.Kind != KindFullURL || fnd.Encoding != EncBase64 {
		t.Fatalf("got (%+v, %v), want a full-url leak encoded %s", fnd, ok, EncBase64)
	}
}

// BenchmarkLeakScanScaling measures per-flow scan cost as the number of
// distinct visits grows 64×. Each visit has its own small automaton
// over its URL's and hostname's representations, compiled before the
// timed region, so ns/op should stay roughly flat across the axis; the
// largest size shows the cost of cycling through many cold automata.
func BenchmarkLeakScanScaling(b *testing.B) {
	for _, visits := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("visits=%d", visits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			flows := leakFlows(visits, rng)
			det := NewDetector()
			for _, f := range flows {
				if f.VisitURL != "" {
					det.visitFor(f.VisitURL)
				}
			}
			s := NewStreamScanner(det, capture.OriginNative)
			s.scanOne(flows[0]) // compile outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.scanOne(flows[i%len(flows)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
		})
	}
}

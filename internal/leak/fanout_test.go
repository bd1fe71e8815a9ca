package leak

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"panoptes/internal/capture"
)

// leakyFleet builds the same mixed flow population in the given order;
// half the flows leak the visit URL plainly, a quarter leak only the
// domain, the rest are clean.
func leakyFleet(order []int) []*capture.Flow {
	var flows []*capture.Flow
	for _, i := range order {
		browser := fmt.Sprintf("Browser-%d", i%5)
		switch i % 4 {
		case 0, 1:
			flows = append(flows, &capture.Flow{
				ID: int64(i + 1), Browser: browser, Host: "collector.example",
				Scheme: "https", Path: "/r", RawQuery: "u=" + visit, VisitURL: visit,
			})
		case 2:
			flows = append(flows, &capture.Flow{
				ID: int64(i + 1), Browser: browser, Host: "beacon.example",
				Scheme: "https", Path: "/b", Body: []byte(`{"d":"mentalhealth-support.org"}`),
				VisitURL: visit,
			})
		default:
			flows = append(flows, &capture.Flow{
				ID: int64(i + 1), Browser: browser, Host: "cdn.example",
				Scheme: "https", Path: "/asset.js", VisitURL: visit,
			})
		}
	}
	return flows
}

// TestScanShardFanOutEquivalence checks a scanner's findings are a pure
// function of the flow multiset: arrival order must not change a single
// byte of the output.
func TestScanShardFanOutEquivalence(t *testing.T) {
	const n = 256
	forward := make([]int, n)
	reverse := make([]int, n)
	shuffled := make([]int, n)
	for i := 0; i < n; i++ {
		forward[i] = i
		reverse[i] = n - 1 - i
		shuffled[i] = (i * 37) % n // 37 coprime to 256: a permutation
	}

	d := NewDetector()
	ref := scan(d, leakyFleet(forward)...)
	if len(ref) != n/2+n/4 {
		t.Fatalf("reference scan found %d leaks, want %d", len(ref), n/2+n/4)
	}
	if !sort.SliceIsSorted(ref, func(i, j int) bool {
		a, b := ref[i], ref[j]
		if a.Browser != b.Browser {
			return a.Browser < b.Browser
		}
		if a.VisitURL != b.VisitURL {
			return a.VisitURL < b.VisitURL
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.FlowID <= b.FlowID
	}) {
		t.Fatal("findings not in canonical order")
	}

	for name, order := range map[string][]int{"reverse": reverse, "shuffled": shuffled} {
		if got := scan(d, leakyFleet(order)...); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s arrival order changed scan output", name)
		}
	}
	// And a rescan of the same flows is identical (the scan itself is
	// deterministic, not just the flow set).
	fs := leakyFleet(forward)
	if !reflect.DeepEqual(scan(d, fs...), scan(d, fs...)) {
		t.Fatal("two scans of one flow set differ")
	}
}

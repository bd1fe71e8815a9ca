package core

import (
	"reflect"
	"testing"

	"panoptes/internal/analysis"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
)

// campaignAnalyses runs a full-fleet crawl at the given parallelism in a
// fresh world and returns the analysis outputs the determinism contract
// covers: Figure 2 rows, the Table 2 PII matrix, the history-leak
// findings, and the visit records themselves.
func campaignAnalyses(t *testing.T, parallelism int) ([]analysis.Fig2Row, pii.Matrix, []leak.Finding, []VisitRecord) {
	t.Helper()
	w := smallWorld(t, 3)
	res, err := w.RunCampaign(CampaignConfig{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}

	rs := replaySuite(w)

	// Flow IDs are allocated from a process-global counter as requests
	// race through the engine's concurrent subresource fetcher, so their
	// values are scheduling accidents even in a sequential crawl. Zero
	// them: the determinism contract is about what leaked where, not
	// which ticket number the flow drew.
	leaks := rs.LeakNative.Findings()
	for i := range leaks {
		leaks[i].FlowID = 0
	}
	fig2, matrix := rs.Fig2.Rows(), rs.PII.Matrix()
	return fig2, matrix, leaks, res.Visits
}

// TestCampaignParallelismDeterminism is the scheduler's acceptance test:
// a Parallelism-8 crawl must produce byte-identical analysis output to
// the sequential Parallelism-1 crawl of an identical world.
func TestCampaignParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-fleet crawls")
	}
	fig2Seq, t2Seq, leaksSeq, visitsSeq := campaignAnalyses(t, 1)
	fig2Par, t2Par, leaksPar, visitsPar := campaignAnalyses(t, 8)

	if !reflect.DeepEqual(fig2Seq, fig2Par) {
		t.Errorf("Fig2 diverges between parallelism 1 and 8:\nseq: %+v\npar: %+v", fig2Seq, fig2Par)
	}
	if !reflect.DeepEqual(t2Seq, t2Par) {
		t.Errorf("Table2 matrix diverges between parallelism 1 and 8:\nseq: %+v\npar: %+v", t2Seq, t2Par)
	}
	if !reflect.DeepEqual(leaksSeq, leaksPar) {
		t.Errorf("HistoryLeaks diverge between parallelism 1 and 8:\nseq: %+v\npar: %+v", leaksSeq, leaksPar)
	}
	if !reflect.DeepEqual(visitsSeq, visitsPar) {
		t.Errorf("visit records diverge between parallelism 1 and 8:\nseq: %+v\npar: %+v", visitsSeq, visitsPar)
	}
}

// TestCampaignParallelMergesProfileOrder checks the merged visit slice
// keeps profile order with each browser's sites in visit order, however
// the workers interleaved.
func TestCampaignParallelMergesProfileOrder(t *testing.T) {
	w := smallWorld(t, 2, "Chrome", "Brave", "Edge", "Opera")
	res, err := w.RunCampaign(CampaignConfig{
		Browsers:    []string{"Opera", "Chrome", "Edge", "Brave"},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range res.Visits {
		got = append(got, v.Browser+"|"+v.URL)
	}
	var want []string
	for _, b := range []string{"Opera", "Chrome", "Edge", "Brave"} {
		for _, s := range w.Sites {
			want = append(want, b+"|"+s.URL())
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged visit order:\ngot  %v\nwant %v", got, want)
	}
}

// TestCampaignUnknownBrowserFailsBeforeCrawl keeps the sequential error
// contract: an unknown name anywhere in the list fails upfront, before
// any browser is crawled.
func TestCampaignUnknownBrowserFailsBeforeCrawl(t *testing.T) {
	w := smallWorld(t, 1, "Chrome")
	res, err := w.RunCampaign(CampaignConfig{
		Browsers:    []string{"Chrome", "Netscape"},
		Parallelism: 2,
	})
	if err == nil {
		t.Fatal("campaign with unknown browser succeeded")
	}
	if res != nil {
		t.Fatalf("result = %+v, want nil (validation precedes crawling)", res)
	}
	if got := w.DB.Engine.Len() + w.DB.Native.Len(); got != 0 {
		t.Fatalf("%d flows captured despite upfront validation failure", got)
	}
}

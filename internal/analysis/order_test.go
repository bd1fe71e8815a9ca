package analysis_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/pipeline"
)

// TestSuiteOrderIndependent is the multiset keystone: the committed
// sample of the results directory, replayed through a fresh Suite in a
// seeded shuffled order and in reverse order, must finalize to the same
// JSON, byte for byte, as the in-order replay. Concurrent commits (a
// crawl's parallel SealAttempts, the population engine's per-visit
// batches) interleave different batches' flows and rely on it.
func TestSuiteOrderIndependent(t *testing.T) {
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
	set := map[string]bool{}
	for _, f := range flows {
		if f.Browser != "" {
			set[f.Browser] = true
		}
	}
	var names []string
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)

	replay := func(fs []*capture.Flow) []byte {
		s := analysis.NewSuite(hostlist.Bundled(), names)
		p := pipeline.New()
		s.Register(p)
		for _, f := range fs {
			p.Observe(f)
		}
		out, err := json.Marshal(p.Results())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := replay(flows)

	shuffled := slices.Clone(flows)
	rand.New(rand.NewSource(21)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	reversed := slices.Clone(flows)
	slices.Reverse(reversed)
	for name, fs := range map[string][]*capture.Flow{"shuffled": shuffled, "reversed": reversed} {
		if got := replay(fs); !bytes.Equal(got, want) {
			t.Errorf("%s replay diverges from the in-order replay:\n got %s\nwant %s", name, got, want)
		}
	}
}

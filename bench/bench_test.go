package bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the catalogue must agree with.
type spec struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name string }               `json:"workloads"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCatalogue holds BENCHMARK.json and the metric catalogue
// in step: the same workloads, and exactly the Listed metrics with the
// same units, directions and bounds.
func TestSpecMatchesCatalogue(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench runs %d", len(s.Workloads), len(Workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, w.Name, Workloads[i])
		}
	}
	var e2e, layers []Metric
	for _, m := range EndToEnd {
		if m.Listed {
			e2e = append(e2e, m)
		}
	}
	for _, m := range PerLayer {
		if m.Listed {
			layers = append(layers, m)
		}
	}
	if len(s.EndToEnd) != len(e2e) || len(s.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(e2e), len(layers))
	}
	for i, m := range s.EndToEnd {
		c := e2e[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, c)
		}
	}
	for i, m := range s.PerLayer {
		c := layers[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, c)
		}
	}
}

// TestSmoke runs every workload at toy size and checks that each run
// passes its output check and emits every metric BENCHMARK.json names,
// that the fault-injected crawl and the fabric reach the clean crawl's
// analyses, and that a result file compared with itself shows no
// regression. A traced run alternates an untraced and a traced rep, so
// one traced run per workload yields both result lines.
func TestSmoke(t *testing.T) {
	start := time.Now()
	res := &ResultFile{Runs: 1}
	digests := make(map[string]string)
	for _, w := range Workloads {
		runStart := time.Now()
		rec, err := Run(Options{
			Workload: w, Seed: DefaultSeed(w), Trace: true,
			Size: ToySize, TempDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d/%d problems=%v",
				w, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
		}
		untraced := *rec
		untraced.Trace = false
		for _, r := range []*Record{&untraced, rec} {
			if _, err := r.ResultLine(); err != nil {
				t.Error(err)
			}
		}
		res.Records = append(res.Records, untraced)
		digests[w] = rec.Digest
		t.Logf("%s: %d reps in %v", w, len(rec.Samples), time.Since(runStart).Round(time.Millisecond))
	}
	for _, w := range []string{"crawl-chaos", "fabric-wan"} {
		if digests[w] != digests["crawl"] {
			t.Errorf("%s digest %s differs from the crawl's %s", w, digests[w], digests["crawl"])
		}
	}
	rows := Compare(res, res)
	if len(rows) == 0 {
		t.Fatal("self-compare produced no rows")
	}
	for _, r := range rows {
		if r.Verdict != Unchanged {
			t.Errorf("self-compare %s/%s: %s", r.Workload, r.Metric, r.Verdict)
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestSummarizeMatchesPython pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSummarizeMatchesPython(t *testing.T) {
	s := Summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("got %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rate := Metric{Name: "visits_per_s", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 100}, Unchanged},
		{[]float64{90, 91, 89, 90, 90}, Worse},
		{[]float64{110, 111, 109, 110, 110}, Better},
		{[]float64{80, 120, 100, 70, 130}, Unresolved},
	} {
		if got := compareMetric("crawl", rate, base, tc.head).Verdict; got != tc.want {
			t.Errorf("head %v: %s, want %s", tc.head, got, tc.want)
		}
	}

	// failed_pct is judged on totals: failures in a minority of runs
	// leave the median at 0 and must still read worse.
	runs := func(failed ...int) *ResultFile {
		f := &ResultFile{}
		for _, n := range failed {
			f.Records = append(f.Records, Record{Workload: "crawl", Attempted: 100, Failed: n,
				Metrics: map[string]Value{"failed_pct": {Value: float64(n)}}})
		}
		return f
	}
	for _, tc := range []struct {
		base, head *ResultFile
		want       string
	}{
		{runs(0, 0, 0, 0, 0), runs(0, 0, 0, 5, 5), Worse},
		{runs(0, 0, 0, 0, 0), runs(0, 0, 0, 0, 0), Unchanged},
		{runs(0, 0, 0, 5, 5), runs(0, 0, 0, 0, 5), Better},
	} {
		rows := Compare(tc.base, tc.head)
		if len(rows) != 1 || rows[0].Verdict != tc.want {
			t.Errorf("failed_pct %v -> %v: %+v, want %s", tc.base.Samples("crawl", "failed_pct"),
				tc.head.Samples("crawl", "failed_pct"), rows, tc.want)
		}
	}
	if got := Failing(Compare(runs(0, 0), runs(0, 1))); len(got[Worse]) != 1 {
		t.Errorf("Failing = %v, want the failed_pct row worse", got)
	}
	// A spread wider than the bound but within the absolute floor still
	// resolves: no regression the metric counts could hide in it.
	setup := Metric{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.02}
	small := []float64{0.04, 0.045, 0.05, 0.058, 0.06}
	if got := compareMetric("crawl", setup, small, small).Verdict; got != Unchanged {
		t.Errorf("setup_s within its floor: %s, want %s", got, Unchanged)
	}
	noisy := compareMetric("crawl", rate, base, []float64{80, 120, 100, 70, 130})
	if got := Failing([]Row{noisy}); len(got[Unresolved]) != 1 {
		t.Errorf("Failing = %v, want the noisy row unresolved", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var live hist
	for i := 1; i <= 1000; i++ {
		live.observe(time.Duration(i) * time.Microsecond)
	}
	var h Hist
	h.add(live.snapshot()) // merged the way a run folds traced reps
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.2 {
			t.Errorf("p%v = %v ns, want within 20%% of %v", q*100, got, want)
		}
	}
	if got, want := h.mean(), 500.5e3; math.Abs(got-want) > 1 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

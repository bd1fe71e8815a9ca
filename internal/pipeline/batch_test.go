package pipeline_test

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/url"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
	"panoptes/internal/hostlist"
	"panoptes/internal/obs"
	"panoptes/internal/pipeline"
)

// orderAnalyzer records the IDs of the flows it observes, in order.
type orderAnalyzer struct {
	mu  sync.Mutex
	ids []int64
}

func (a *orderAnalyzer) Observe(f *capture.Flow) {
	a.mu.Lock()
	a.ids = append(a.ids, f.ID)
	a.mu.Unlock()
}

func (a *orderAnalyzer) Finalize() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.ids...)
}

var mixBrowsers = []string{"Chrome", "Yandex", "Opera"}

// flowMix builds n flows shaped like population visits: engine
// documents and ad sub-resources, native beacons leaking the visited
// URL plain and in Base64, PII queries and JSON bodies, identifiers,
// WebSocket frames and DoH queries.
func flowMix(t *testing.T, n int) []*capture.Flow {
	t.Helper()
	const uuid = "3929d87cfa02a9437044a54d3c0e7e6d"
	out := make([]*capture.Flow, n)
	for i := range out {
		visit := fmt.Sprintf("https://site%d.example/page/%d", i%17, i%5)
		f := &capture.Flow{
			ID: capture.NextFlowID(), Browser: mixBrowsers[i%len(mixBrowsers)],
			Method: "GET", Scheme: "https", Status: 200, Transport: capture.TransportH1,
			Origin: capture.OriginNative, VisitURL: visit, ReqBytes: 100 + i%50, RespBytes: 64,
		}
		switch i % 8 {
		case 0:
			f.Origin, f.Host, f.Path = capture.OriginEngine, fmt.Sprintf("site%d.example", i%17), "/"
		case 1:
			f.Origin, f.Host, f.Path = capture.OriginEngine, "ad.doubleclick.net", "/pagead"
			f.RawQuery = "ref=" + url.QueryEscape(visit)
		case 2:
			f.Host, f.Path = "api.vendor.example", "/v1/visit"
			f.RawQuery = "u=" + base64.StdEncoding.EncodeToString([]byte(visit)) + "&uuid=" + uuid
		case 3:
			f.Host, f.Path = "stats.vendor.example", "/device/profile"
			f.RawQuery = fmt.Sprintf("country=GR&lat=35.%d&tz=Europe/Athens&localIp=192.168.1.%d", i%97, i%200)
		case 4:
			f.Method, f.Host, f.Path = "POST", "ads.vendor.example", "/report"
			f.Body = []byte(fmt.Sprintf(`{"operaId":"%s","dpi":%d,"rooted":false,"url":"%s"}`, uuid, 200+i%200, visit))
		case 5:
			f.Method, f.Scheme, f.Host, f.Path = "WS", "wss", "push.vendor.example", "/push/v1/telemetry"
			f.Transport = capture.TransportWS
			f.Body = []byte(fmt.Sprintf(`{"event":"page_visit","seq":%d,"url":%q}`, i, visit))
		case 6:
			q, err := dnsmsg.NewQuery(uint16(i), fmt.Sprintf("site%d.example", i%17), dnsmsg.TypeA).Pack()
			if err != nil {
				t.Fatal(err)
			}
			f.Method, f.Host, f.Path, f.Transport, f.Body = "POST", "dns.vendor.example", "/dns-query", capture.TransportDoH, q
		default:
			f.Host, f.Path, f.VisitURL = []string{"t.vendor.example", "adfox.ru"}[i/8%2], "/beacon", ""
		}
		out[i] = f
	}
	return out
}

// suitePipeline registers a full analysis suite plus order recorders
// under the given name prefix.
func suitePipeline(prefix string) (*pipeline.Pipeline, []string) {
	p := pipeline.New()
	analysis.NewSuite(hostlist.Bundled(), mixBrowsers).Register(p)
	for i := 0; i < 3; i++ {
		p.Register(fmt.Sprintf("%sorder-%d", prefix, i), &orderAnalyzer{})
	}
	return p, p.Names()
}

// TestObserveAllMatchesObserve: a batch folded analyzer by analyzer
// leaves every analyzer exactly where per-flow Observe calls leave it —
// the same observation order, byte-identical results — at one P and at
// several, and pipeline_observed_total advances by exactly the batch.
func TestObserveAllMatchesObserve(t *testing.T) {
	flows := flowMix(t, 3*1024+517)
	ref, _ := suitePipeline("")
	for _, f := range flows {
		ref.Observe(f)
	}
	wantRes := ref.Results()
	want, err := json.Marshal(wantRes)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p, names := suitePipeline("")
			before := map[string]int64{}
			for _, name := range names {
				before[name] = obs.Default.Counter("pipeline_observed_total", "analyzer", name).Value()
			}
			p.ObserveAll(flows)
			for _, name := range names {
				if got := obs.Default.Counter("pipeline_observed_total", "analyzer", name).Value() - before[name]; got != int64(len(flows)) {
					t.Errorf("%s: observed_total delta %d, want %d", name, got, len(flows))
				}
			}
			gotRes := p.Results()
			for _, name := range names {
				if ids, ok := wantRes[name].([]int64); ok && !reflect.DeepEqual(gotRes[name], ids) {
					t.Errorf("%s: observation order differs from per-flow Observe", name)
				}
			}
			got, err := json.Marshal(gotRes)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("ObserveAll results differ from per-flow Observe:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// pauseAnalyzer sleeps d in every fold call and keeps nothing.
type pauseAnalyzer struct{ d time.Duration }

func (a pauseAnalyzer) Observe(*capture.Flow)      { time.Sleep(a.d) }
func (a pauseAnalyzer) ObserveAll([]*capture.Flow) { time.Sleep(a.d) }
func (pauseAnalyzer) Finalize() any                { return nil }

// TestObserveAllShortBatchFoldsLikeObserve: a batch is timed once, whole,
// when it holds a sample point (the first flow or a TimeEvery-th after
// it), and its sample is the fold's per-flow mean. Each analyzer sees
// the batch in slice order; one without ObserveAll takes it one Observe
// per flow.
func TestObserveAllShortBatchFoldsLikeObserve(t *testing.T) {
	const name, paused = "short-batch", "short-batch-paused"
	const pause = 2 * time.Millisecond
	histogram := func(name string) *obs.Histogram {
		return obs.Default.Histogram("pipeline_observe_seconds", obs.ExponentialBuckets(1e-6, 4, 10), "analyzer", name)
	}
	h, hp := histogram(name), histogram(paused)
	timed0, sum0 := h.Count(), hp.Sum()
	p := pipeline.New()
	a := &orderAnalyzer{}
	p.Register(name, a)
	p.Register(paused, pauseAnalyzer{pause})

	const te = pipeline.TimeEvery
	flows := flowMix(t, 2*te+6)
	var seq, wantTimed int64
	for k, n := range []int{te - 1, 1, 1, te - 2, 2, 5} {
		batch := flows[seq : seq+int64(n)]
		sampled := false
		for range batch {
			seq++
			sampled = sampled || seq%te == 1
		}
		if sampled {
			wantTimed++
		}
		start := time.Now()
		p.ObserveAll(batch)
		wall := time.Since(start)
		if got := h.Count() - timed0; got != wantTimed {
			t.Fatalf("batch %d (flows ..%d): %d samples, want %d", k, seq, got, wantTimed)
		}
		if k == 0 {
			// The sample is the paused fold's per-flow mean: at least
			// the pause over the batch, at most the whole call over it.
			got, lo, hi := hp.Sum()-sum0, pause.Seconds()/float64(n), wall.Seconds()/float64(n)
			if got < lo || got > hi {
				t.Fatalf("sample %.3gs, want the per-flow mean in [%.3gs, %.3gs]", got, lo, hi)
			}
		}
	}
	if !reflect.DeepEqual(a.ids, flowIDs(flows)) {
		t.Errorf("short batches observed %d flows, not once each in slice order", len(a.ids))
	}
}

// flowIDs lists the flows' IDs in slice order.
func flowIDs(fs []*capture.Flow) []int64 {
	ids := make([]int64, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	return ids
}

// TestObserveAllConcurrent: batches committed from eight goroutines at
// once leave the suite where one goroutine's per-flow Observe calls
// leave it, byte for byte. Every analyzer sees every flow exactly once,
// each batch in slice order; pipeline_observed_total is exact and the
// histogram gets one sample per batch that holds a sample point.
func TestObserveAllConcurrent(t *testing.T) {
	const workers, batch = 8, 37
	flows := flowMix(t, 64*batch+11)
	ref := pipeline.New()
	analysis.NewSuite(hostlist.Bundled(), mixBrowsers).Register(ref)
	for _, f := range flows {
		ref.Observe(f)
	}
	want, err := json.Marshal(ref.Results())
	if err != nil {
		t.Fatal(err)
	}

	p := pipeline.New()
	analysis.NewSuite(hostlist.Bundled(), mixBrowsers).Register(p)
	const name = "concurrent-order"
	order := &orderAnalyzer{}
	p.Register(name, order)
	names := p.Names()
	before := map[string]int64{}
	for _, n := range names {
		before[n] = obs.Default.Counter("pipeline_observed_total", "analyzer", n).Value()
	}
	h := obs.Default.Histogram("pipeline_observe_seconds", obs.ExponentialBuckets(1e-6, 4, 10), "analyzer", name)
	timed0 := h.Count()

	var batches [][]*capture.Flow
	for i := 0; i < len(flows); i += batch {
		batches = append(batches, flows[i:min(i+batch, len(flows))])
	}
	var next sync.Mutex
	k := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := k
				k++
				next.Unlock()
				if i >= len(batches) {
					return
				}
				p.ObserveAll(batches[i])
			}
		}()
	}
	wg.Wait()

	for _, n := range names {
		if got := obs.Default.Counter("pipeline_observed_total", "analyzer", n).Value() - before[n]; got != int64(len(flows)) {
			t.Errorf("%s: observed_total delta %d, want %d", n, got, len(flows))
		}
	}
	// Every batch is shorter than TimeEvery, so each of the sample
	// points among the flows' sequence numbers lies in its own batch.
	if got, want := h.Count()-timed0, int64((len(flows)+pipeline.TimeEvery-1)/pipeline.TimeEvery); got != want {
		t.Errorf("%d samples, want %d (one per batch holding a sample point)", got, want)
	}
	res := p.Results()
	pos := map[int64]int{}
	for i, id := range res[name].([]int64) {
		if _, dup := pos[id]; dup {
			t.Fatalf("flow %d observed twice", id)
		}
		pos[id] = i
	}
	if len(pos) != len(flows) {
		t.Fatalf("observed %d distinct flows, want %d", len(pos), len(flows))
	}
	for _, b := range batches {
		for i := 1; i < len(b); i++ {
			if pos[b[i].ID] < pos[b[i-1].ID] {
				t.Fatalf("flow %d observed before %d of the same batch", b[i].ID, b[i-1].ID)
			}
		}
	}
	delete(res, name)
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("concurrent ObserveAll diverged from serial Observe:\n got %s\nwant %s", got, want)
	}
}

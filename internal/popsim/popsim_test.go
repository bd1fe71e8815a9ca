package popsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/faultsim"
	"panoptes/internal/hostlist"
	"panoptes/internal/pii"
	"panoptes/internal/pipeline"
	"panoptes/internal/profiles"
	"panoptes/internal/vclock"
	"panoptes/internal/websim"
)

// popHarness is one self-contained population run: its own capture DB,
// streaming-analysis pipeline, virtual clock and engine, so two
// harnesses in one process share nothing but the global flow ID
// allocator (normalized away by FlowIDBase).
type popHarness struct {
	db     *capture.DB
	pl     *pipeline.Pipeline
	engine *Engine
}

func newPopHarness(t testing.TB, mut func(*Config)) *popHarness {
	t.Helper()
	fleet := profiles.All()
	names := make([]string, len(fleet))
	for i, p := range fleet {
		names[i] = p.Name
	}
	uids := make(map[string]int, len(fleet))
	for i, p := range fleet {
		uids[p.Name] = i + 1
	}
	db := capture.NewDB()
	pl := pipeline.New()
	analysis.NewSuite(hostlist.Bundled(), names).Register(pl)
	db.SetTap(pl)
	if err := db.SetRetention(capture.RetainNone); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population:  400,
		Duration:    2 * time.Minute,
		Seed:        42,
		Profiles:    fleet,
		Sites:       websim.Dataset(50),
		Hostlist:    hostlist.Bundled(),
		DB:          db,
		Clock:       vclock.New(),
		BrowserUIDs: uids,
		DeviceIP:    "10.1.0.2",
		AdmitPerSec: 3, // below the arrival rate, so throttling engages
		SampleEvery: 4,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.Register("population-curve", e.Curve())
	return &popHarness{db: db, pl: pl, engine: e}
}

// fingerprint canonicalizes every analysis result plus the population
// curve into one JSON blob, with flow IDs rebased onto a run-relative
// sequence (the ID allocator is process-global, so absolute IDs differ
// between runs that are otherwise byte-identical).
func (h *popHarness) fingerprint(t testing.TB) string {
	t.Helper()
	raw, err := json.Marshal(h.pl.Results())
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	rebaseFlowIDs(v, float64(h.engine.FlowIDBase()))
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func rebaseFlowIDs(v any, base float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if k == "FlowID" {
				if id, ok := e.(float64); ok && id > 0 {
					x[k] = id - base
				}
				continue
			}
			rebaseFlowIDs(e, base)
		}
	case []any:
		for _, e := range x {
			rebaseFlowIDs(e, base)
		}
	}
}

// TestPopulationDeterminism is the keystone: the full analysis output
// of a population run is byte-identical whether flow synthesis runs on
// one worker or eight, and whether the run is driven straight through
// or paused and resumed halfway.
func TestPopulationDeterminism(t *testing.T) {
	churn := map[faultsim.Kind]float64{faultsim.UserChurn: 0.05}

	base := newPopHarness(t, func(c *Config) {
		c.Parallelism = 1
		c.Faults = faultsim.New(faultsim.Plan{Seed: 7, Rates: churn})
	})
	if err := base.engine.Run(); err != nil {
		t.Fatal(err)
	}
	want := base.fingerprint(t)

	stats := base.engine.Stats()
	if stats.Sessions == 0 || stats.Visits == 0 || stats.FlowsCommitted == 0 {
		t.Fatalf("degenerate run: %+v", stats)
	}
	if stats.Throttled == 0 {
		t.Fatal("admission throttling never engaged; backlog path untested")
	}
	if stats.ChurnedUsers == 0 {
		t.Fatal("user churn never engaged; churn path untested")
	}

	par := newPopHarness(t, func(c *Config) {
		c.Parallelism = 8
		c.Faults = faultsim.New(faultsim.Plan{Seed: 7, Rates: churn})
	})
	if err := par.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := par.fingerprint(t); got != want {
		t.Errorf("parallelism=8 diverged from parallelism=1:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if ps, bs := par.engine.Stats(), stats; ps.Visits != bs.Visits ||
		ps.Sessions != bs.Sessions || ps.FlowsCommitted != bs.FlowsCommitted ||
		ps.ChurnedUsers != bs.ChurnedUsers || ps.SampledVisits != bs.SampledVisits {
		t.Errorf("stats diverged across parallelism:\n got %+v\nwant %+v", ps, bs)
	}

	resumed := newPopHarness(t, func(c *Config) {
		c.Parallelism = 4
		c.Faults = faultsim.New(faultsim.Plan{Seed: 7, Rates: churn})
	})
	if err := resumed.engine.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	mid := resumed.engine.Stats()
	if mid.Visits == 0 || mid.Visits >= stats.Visits {
		t.Fatalf("half-run visits %d out of range (full run %d)", mid.Visits, stats.Visits)
	}
	if err := resumed.engine.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := resumed.fingerprint(t); got != want {
		t.Error("paused-and-resumed run diverged from straight run")
	}

	// A dense run commits many visits per tick from two goroutines at
	// once; folded flow by flow, the same run must come out
	// byte-identical.
	dense := func(c *Config) {
		c.Population = 600
		c.Duration = 10 * time.Second
		c.RampUp = 2 * time.Second
		c.AdmitPerSec = 1000
		c.Parallelism = 2
	}
	batched := newPopHarness(t, dense)
	serial := newPopHarness(t, dense)
	serial.db.SetTap(flowByFlow{serial.pl})
	for _, h := range []*popHarness{batched, serial} {
		if err := h.engine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if batched.fingerprint(t) != serial.fingerprint(t) {
		t.Error("batch fold diverged from the per-flow fold")
	}

	// Every visit commits as one batch under the IDs the loop reserved
	// for it. The ramp-up packs 400 users into five ticks, so the run
	// holds crowded ticks and, later, sparse ones. Each batch must be one visit with contiguous IDs, the
	// batches together must cover the run-relative IDs 1..FlowsCommitted
	// exactly, and the analyses may depend neither on the number of
	// committing goroutines nor on the fold.
	t.Run("job IDs", func(t *testing.T) {
		busy := func(p int) func(*Config) {
			return func(c *Config) {
				c.Population = 400
				c.Duration = 2 * time.Second
				c.RampUp = 500 * time.Millisecond
				c.AdmitPerSec = 10_000
				c.Seed = 31
				c.Parallelism = p
			}
		}
		var want string
		for _, p := range []int{1, 2, 8} {
			h := newPopHarness(t, busy(p))
			jt := &jobTap{Pipeline: h.pl}
			h.db.SetTap(jt)
			if err := h.engine.Run(); err != nil {
				t.Fatal(err)
			}
			jt.check(t, h.engine)
			if p == 1 {
				want = h.fingerprint(t)
				continue
			}
			if h.fingerprint(t) != want {
				t.Errorf("parallelism=%d diverged from parallelism=1", p)
			}
		}
		serial := newPopHarness(t, busy(2))
		serial.db.SetTap(flowByFlow{serial.pl})
		if err := serial.engine.Run(); err != nil {
			t.Fatal(err)
		}
		if serial.fingerprint(t) != want {
			t.Error("per-visit commits diverged from the per-flow fold")
		}
	})
}

// jobBatch is one committed batch: its first and last flow IDs and
// whether it looked like one visit.
type jobBatch struct {
	first, last int64
	n           int
	oneVisit    bool
}

// jobTap is the pipeline as a commit tap, noting every batch. Batches
// arrive from several goroutines at once.
type jobTap struct {
	*pipeline.Pipeline
	mu      sync.Mutex
	batches []jobBatch
}

func (j *jobTap) ObserveAll(fs []*capture.Flow) {
	b := jobBatch{first: fs[0].ID, last: fs[len(fs)-1].ID, n: len(fs), oneVisit: true}
	// One visit: one browser at one instant, its engine flows first
	// (the document leads), then its native flows, IDs in slice order.
	native := false
	for i, f := range fs {
		native = native || f.Origin == capture.OriginNative
		if f.ID != b.first+int64(i) || f.Browser != fs[0].Browser || !f.Time.Equal(fs[0].Time) ||
			(native && f.Origin != capture.OriginNative) {
			b.oneVisit = false
		}
	}
	if fs[0].Origin != capture.OriginEngine || fs[0].Path != "/" {
		b.oneVisit = false
	}
	j.mu.Lock()
	j.batches = append(j.batches, b)
	j.mu.Unlock()
	j.Pipeline.ObserveAll(fs)
}

// check asserts one batch per visit, each one visit with contiguous
// IDs, and that together they cover the run-relative IDs
// 1..FlowsCommitted exactly once.
func (j *jobTap) check(t *testing.T, e *Engine) {
	t.Helper()
	s := e.Stats()
	if len(j.batches) != s.Visits {
		t.Fatalf("%d batches for %d visits", len(j.batches), s.Visits)
	}
	sort.Slice(j.batches, func(a, b int) bool { return j.batches[a].first < j.batches[b].first })
	next := e.FlowIDBase() + 1
	for _, b := range j.batches {
		if !b.oneVisit {
			t.Fatalf("batch of IDs %d..%d is not one visit in canonical order", b.first, b.last)
		}
		if b.first != next {
			t.Fatalf("run-relative IDs jump from %d to %d", next-1-e.FlowIDBase(), b.first-e.FlowIDBase())
		}
		next = b.last + 1
	}
	if got := next - 1 - e.FlowIDBase(); got != s.FlowsCommitted {
		t.Fatalf("run-relative IDs end at %d, FlowsCommitted = %d", got, s.FlowsCommitted)
	}
}

// flowByFlow hides a tap's ObserveAll, so every batch reaches it as one
// Observe per flow.
type flowByFlow struct{ capture.Tap }

// refTap pins every committed flow, as a retaining export sink does.
// Batches arrive from several goroutines at once.
type refTap struct {
	mu    sync.Mutex
	flows []*capture.Flow
}

func (t *refTap) Observe(f *capture.Flow) {
	f.Ref()
	t.mu.Lock()
	t.flows = append(t.flows, f)
	t.mu.Unlock()
}
func (t *refTap) Retract(int64) {}
func (t *refTap) Seal(int64)    {}

// TestRunUntilHoldsNoFlows: once RunUntil returns the engine holds no
// reference on any flow it committed, so when the last other holder
// lets go every record is recycled (resetForReuse zeroes it). The
// dense case's first tick holds hundreds of visits, so each committing
// goroutine recycles flows many times inside the tick.
func TestRunUntilHoldsNoFlows(t *testing.T) {
	h := newPopHarness(t, func(c *Config) {
		c.Population = 200
		c.Duration = 20 * time.Second
		c.AdmitPerSec = 100
		c.Parallelism = 2
	})
	for _, until := range []time.Duration{10 * time.Second, 20 * time.Second} {
		runPinned(t, h, until)
	}

	// Nearly all 800 users arrive inside the first tick.
	dense := newPopHarness(t, func(c *Config) {
		c.Population = 800
		c.Duration = time.Second
		c.RampUp = tickDur
		c.AdmitPerSec = 10_000
		c.Parallelism = 2
	})
	runPinned(t, dense, tickDur)
	if n := len(dense.engine.jobs); n < 640 {
		t.Fatalf("dense first tick holds %d jobs, want at least 640", n)
	}
	runPinned(t, dense, time.Second)
}

// runPinned runs the engine to until with a tap that pins every
// committed flow, releases the pins, and requires every flow to have
// been recycled.
func runPinned(t *testing.T, h *popHarness, until time.Duration) {
	t.Helper()
	tap := &refTap{}
	h.db.SetTap(capture.Taps{h.pl, tap})
	if err := h.engine.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	if len(tap.flows) == 0 {
		t.Fatalf("RunUntil(%v) committed no flows", until)
	}
	for _, f := range tap.flows {
		f.Release()
	}
	for i, f := range tap.flows {
		if f.ID != 0 || f.Host != "" || f.Browser != "" {
			t.Fatalf("RunUntil(%v): flow %d of %d (id %d) still referenced after the tap released it",
				until, i, len(tap.flows), f.ID)
		}
	}
}

// snapTap records every committed flow's JSON, with the ID zeroed,
// keyed by ID. Batches arrive from several goroutines at once.
type snapTap struct {
	mu   sync.Mutex
	byID map[int64]string
	err  error
}

func (t *snapTap) Observe(f *capture.Flow) {
	c := *f
	c.ID = 0
	b, err := json.Marshal(&c)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.err = err
	}
	t.byID[f.ID] = string(b)
}
func (t *snapTap) Retract(int64) {}
func (t *snapTap) Seal(int64)    {}

// TestRetainedFlowsStayIntact: under RetainAll the stores hold every
// committed flow, so no worker may reuse one of those records for a
// later visit. After each run step every stored flow has a unique ID,
// the IDs cover the run-relative IDs 1..FlowsCommitted, and each flow
// reads as the same flow of a fresh run under RetainNone, whose workers
// reuse their records all the time.
func TestRetainedFlowsStayIntact(t *testing.T) {
	cfg := func(c *Config) {
		c.Population = 200
		c.Duration = 20 * time.Second
		c.AdmitPerSec = 100
		c.Parallelism = 2
	}
	kept, fresh := newPopHarness(t, cfg), newPopHarness(t, cfg)
	if err := kept.db.SetRetention(capture.RetainAll); err != nil {
		t.Fatal(err)
	}
	// The fresh run goes first and straight through: flow IDs come from
	// one process-global allocator, so each run's IDs are contiguous
	// only while the other one is idle.
	ref := &snapTap{byID: map[int64]string{}}
	fresh.db.SetTap(capture.Taps{fresh.pl, ref})
	if err := fresh.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for _, until := range []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second} {
		if err := kept.engine.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		stored := append(kept.db.Engine.All(), kept.db.Native.All()...)
		if n := kept.engine.Stats().FlowsCommitted; int64(len(stored)) != n || n == 0 {
			t.Fatalf("RunUntil(%v): %d flows stored, %d committed", until, len(stored), n)
		}
		seen := map[int64]bool{}
		for _, f := range stored {
			rel := f.ID - kept.engine.FlowIDBase()
			if seen[rel] || rel < 1 || rel > int64(len(stored)) {
				t.Fatalf("RunUntil(%v): stored run-relative ID %d repeated or out of range", until, rel)
			}
			seen[rel] = true
			c := *f
			c.ID = 0
			got, err := json.Marshal(&c)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.byID[fresh.engine.FlowIDBase()+rel]; string(got) != want {
				t.Fatalf("RunUntil(%v): stored flow %d changed after commit:\n got %s\nwant %s", until, rel, got, want)
			}
		}
	}
	if n := kept.engine.Stats().FlowsCommitted; int64(len(ref.byID)) != n {
		t.Fatalf("fresh run committed %d flows, the retained run %d", len(ref.byID), n)
	}
}

// TestPopulationBoundedResidency is the 10k-user smoke: under
// RetainNone nothing stays resident in the capture stores, sampling
// stays under its cap, and the analyses still come out populated.
func TestPopulationBoundedResidency(t *testing.T) {
	h := newPopHarness(t, func(c *Config) {
		c.Population = 10_000
		c.Duration = time.Minute
		c.AdmitPerSec = 2000
		c.Parallelism = 4
	})
	if err := h.engine.Run(); err != nil {
		t.Fatal(err)
	}
	resident := h.db.Engine.Len() + h.db.Native.Len() +
		h.db.Engine.Pending() + h.db.Native.Pending()
	if resident != 0 {
		t.Errorf("retain=none left %d flows resident", resident)
	}
	s := h.engine.Stats()
	if s.ArrivedUsers != 10_000 {
		t.Errorf("ArrivedUsers = %d, want 10000", s.ArrivedUsers)
	}
	if s.SampledVisits > 2048 {
		t.Errorf("SampledVisits = %d exceeds the 2048 cap", s.SampledVisits)
	}
	if s.Sessions == 0 || s.FlowsCommitted == 0 {
		t.Fatalf("degenerate run: %+v", s)
	}
	res := h.pl.Results()
	if m, ok := res["table2"].(pii.Matrix); !ok {
		t.Errorf("table2 result has type %T", res["table2"])
	} else {
		leaky := 0
		for b := range m {
			if m.Count(b) > 0 {
				leaky++
			}
		}
		if leaky == 0 {
			t.Error("Table 2 matrix saw no leaky browsers")
		}
	}
	series := h.engine.Curve().Series()
	if len(series) == 0 {
		t.Fatal("population curve has no series")
	}
	total := 0
	for _, sr := range series {
		total += sr.Total
	}
	if total == 0 {
		t.Error("population curve observed no native flows")
	}
}

// modelFor builds a standalone model for sampler tests.
func modelFor(t *testing.T, seed int64) *Model {
	return modelWith(t, seed, websim.Dataset(20))
}

// modelWith builds a standalone model over the given sites.
func modelWith(t *testing.T, seed int64, sites []*websim.Site) *Model {
	t.Helper()
	cfg, err := Config{
		Population: 1000,
		Duration:   time.Minute,
		Seed:       seed,
		Profiles:   profiles.All(),
		Sites:      sites,
		Hostlist:   hostlist.Bundled(),
		DB:         capture.NewDB(),
		Clock:      vclock.New(),
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return newModel(&cfg)
}

// samplerTrace renders a canonical dump of every sampler over a grid of
// coordinates. Determinism of the whole population plane reduces to
// this string being stable.
func samplerTrace(m *Model) string {
	var b strings.Builder
	for user := uint32(0); user < 32; user++ {
		fmt.Fprintf(&b, "u%d b%d", user, m.BrowserIdx(user))
		for sess := uint32(0); sess < 3; sess++ {
			fmt.Fprintf(&b, " v%d g%d", m.SessionVisits(user, sess),
				m.SessionGap(user, sess).Milliseconds())
			for visit := uint32(0); visit < 2; visit++ {
				fmt.Fprintf(&b, " d%d s%d",
					m.Dwell(user, sess, visit).Milliseconds(),
					m.SiteIdx(user, sess, visit))
			}
		}
		fmt.Fprintf(&b, " id%s\n", m.UUID(m.BrowserIdx(user), user)[:12])
	}
	return b.String()
}

// TestSamplerGolden pins the sampler outputs for seed 42: any change to
// the hash chain, the stream layout or the distribution shapes shows up
// here as a reproducibility break, not as silently different campaigns.
func TestSamplerGolden(t *testing.T) {
	const golden = "df124835758213b0b64fecbf2d5e7ff699faf2768150e9e124bbc9c9e583b5ce"
	trace := samplerTrace(modelFor(t, 42))
	sum := sha256.Sum256([]byte(trace))
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("sampler trace digest = %s, want %s\ntrace head:\n%s",
			got, golden, trace[:200])
	}
	if other := samplerTrace(modelFor(t, 43)); other == trace {
		t.Error("seed 43 reproduced the seed-42 trace; seed is not keyed in")
	}
}

// TestSamplerOrderIndependence draws the same quantities in shuffled
// call order and compares: samplers must be pure functions of their
// coordinates, with no hidden generator state to advance.
func TestSamplerOrderIndependence(t *testing.T) {
	m := modelFor(t, 42)
	type coord struct{ user, sess, visit uint32 }
	var coords []coord
	for u := uint32(0); u < 64; u++ {
		for s := uint32(0); s < 4; s++ {
			coords = append(coords, coord{u, s, u % 3})
		}
	}
	draw := func(cs []coord) string {
		var b strings.Builder
		for _, c := range cs {
			fmt.Fprintf(&b, "%d/%d/%d:%d,%v,%v,%d;", c.user, c.sess, c.visit,
				m.SessionVisits(c.user, c.sess), m.SessionGap(c.user, c.sess),
				m.Dwell(c.user, c.sess, c.visit), m.SiteIdx(c.user, c.sess, c.visit))
		}
		return b.String()
	}
	want := draw(coords)
	shuffled := append([]coord(nil), coords...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// Draw in shuffled order, then re-render in canonical order.
	_ = draw(shuffled)
	if got := draw(coords); got != want {
		t.Error("sampler outputs changed after interleaved draws")
	}
}

// TestMarketShareAssignment checks the browser mix over a large user
// block against the profiles' market shares (law of large numbers, so
// the tolerance is loose but the ordering must hold exactly).
func TestMarketShareAssignment(t *testing.T) {
	m := modelFor(t, 42)
	fleet := profiles.All()
	counts := make([]int, len(fleet))
	const users = 200_000
	for u := uint32(0); u < users; u++ {
		counts[m.BrowserIdx(u)]++
	}
	var totalShare float64
	for _, p := range fleet {
		totalShare += p.MarketSharePct
	}
	for i, p := range fleet {
		got := float64(counts[i]) / users
		want := p.MarketSharePct / totalShare
		if diff := got - want; diff < -0.01 || diff > 0.01 {
			t.Errorf("%s share = %.4f, want %.4f ± 0.01", p.Name, got, want)
		}
		if counts[i] == 0 {
			t.Errorf("%s was never assigned", p.Name)
		}
	}
	// Chrome dominates the mix, as in the market-share table.
	for i := 1; i < len(fleet); i++ {
		if counts[i] >= counts[0] {
			t.Errorf("%s (%d users) outdrew %s (%d users)",
				fleet[i].Name, counts[i], fleet[0].Name, counts[0])
		}
	}
}

// TestFlowCountMatchesSynthesize: the count the event loop reserves
// flow IDs by equals what synthesis renders, for every default profile
// on every site of the benchmark's 50-site list, sampled and not.
func TestFlowCountMatchesSynthesize(t *testing.T) {
	m := modelWith(t, 42, websim.Dataset(50))
	var fs []*capture.Flow
	var free freeList
	for p := range m.profiles {
		for site := range m.sites {
			for _, sampled := range []bool{false, true} {
				j := synthJob{user: uint32(7 * site), sess: 1, visit: 2, pIdx: p, siteIdx: site, sampled: sampled}
				fs = m.synthesize(j, fs[:0], &free)
				if want := m.flowCount(j); len(fs) != want {
					t.Errorf("%s on %s (sampled %v): synthesized %d flows, flowCount %d",
						m.profiles[p].p.Name, m.sites[site].domain, sampled, len(fs), want)
				}
				for _, f := range fs {
					f.Release()
				}
			}
		}
	}
}

// TestTemplateMatchesReplacer: a compiled native template renders what
// a strings.Replacer over the placeholders renders, for every default
// profile's templates and for edge cases around the braces.
func TestTemplateMatchesReplacer(t *testing.T) {
	vals := placeholderValues{"https://a.example/p?q=1", "aHR0cHM6Ly9h", "https%3A%2F%2Fa.example", "a.example", "0123abcd"}
	var olds []string
	for k, p := range placeholders {
		olds = append(olds, p, vals[k])
	}
	r := strings.NewReplacer(olds...)
	cases := []string{"", "plain", "{URL}", "{URL}{URL}", "x{URL_B64}y{URL_ESC}z", "{{HOST}}", "{URL", "{URL_}", "{UUID}{", "}{HOST"}
	for _, p := range profiles.All() {
		for _, tpl := range p.OnVisit {
			cases = append(cases, tpl.Query, tpl.Body)
		}
	}
	for _, c := range cases {
		want := r.Replace(c)
		if got := string(compileTemplate(c).appendTo([]byte("pre"), &vals)); got != "pre"+want {
			t.Errorf("appendTo(%q) = %q, want %q", c, got, "pre"+want)
		}
	}
}

// TestWheelOverflow exercises the overflow list: events beyond the
// wheel horizon must fire at their tick, in insertion order.
func TestWheelOverflow(t *testing.T) {
	w := newWheel()
	far := uint32(3 * wheelSlots)
	w.schedule(event{tick: far, user: 1})
	w.schedule(event{tick: far, user: 2})
	w.schedule(event{tick: 5, user: 3})
	if w.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", w.Pending())
	}
	var fired []event
	for w.cursor <= far {
		fired = w.take(fired)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if fired[0].user != 3 || fired[1].user != 1 || fired[2].user != 2 {
		t.Errorf("fire order = %v", fired)
	}
	if fired[1].tick != far || fired[2].tick != far {
		t.Errorf("overflow events fired at ticks %d/%d, want %d",
			fired[1].tick, fired[2].tick, far)
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after drain", w.Pending())
	}
}

// TestConfigValidation covers the error paths of withDefaults.
func TestConfigValidation(t *testing.T) {
	db, clk := capture.NewDB(), vclock.New()
	sites := websim.Dataset(1)
	cases := []Config{
		{Duration: time.Minute, DB: db, Clock: clk, Sites: sites},  // no population
		{Population: 1, DB: db, Clock: clk, Sites: sites},          // no duration
		{Population: 1, Duration: time.Minute, Sites: sites},       // no DB/clock
		{Population: 1, Duration: time.Minute, DB: db, Clock: clk}, // no sites
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

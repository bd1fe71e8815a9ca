package core

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/breaker"
	"panoptes/internal/browser"
	"panoptes/internal/capture"
	"panoptes/internal/cdp"
	"panoptes/internal/faultsim"
	"panoptes/internal/frida"
	"panoptes/internal/obs"
	"panoptes/internal/profiles"
	"panoptes/internal/taint"
	"panoptes/internal/websim"
)

// Campaign observability: visit throughput and latency are the headline
// numbers the end-of-run summary and /metrics expose.
var (
	mVisitOK      = obs.Default.Counter("core_visits_total", "result", "ok")
	mVisitErr     = obs.Default.Counter("core_visits_total", "result", "error")
	mVisitLatency = obs.Default.Histogram("core_visit_duration_seconds", nil)
	mCampaigns    = obs.Default.Counter("core_campaigns_total")
	mCampaignProg = obs.Default.Gauge("core_campaign_progress_visits")
	mBrowsersDone = obs.Default.Counter("core_browsers_crawled_total")
	mParallelism  = obs.Default.Gauge("core_campaign_parallelism")
	mVisitRetries = obs.Default.Counter("core_visit_retries")
)

func init() {
	obs.Default.Help("core_visits_total", "Page visits by outcome.")
	obs.Default.Help("core_visit_duration_seconds", "Virtual-clock duration of one visit (modelled load + settle).")
	obs.Default.Help("core_campaigns_total", "Campaigns started.")
	obs.Default.Help("core_campaign_progress_visits", "Visits completed in the currently running campaign.")
	obs.Default.Help("core_browsers_crawled_total", "Per-browser crawls completed.")
	obs.Default.Help("core_campaign_parallelism", "Worker count of the currently running campaign.")
	obs.Default.Help("core_worker_visits_total", "Visits completed by each campaign scheduler worker.")
	obs.Default.Help("core_visit_retries", "Navigation attempts retried after a failure.")
	obs.Default.Help("breaker_open_total", "Circuit-breaker open transitions, by scope (host or browser).")
	obs.Default.Help("core_teardown_errors_total", "Session/instrumentation teardown errors, by operation.")
}

// breakerOpened records a campaign breaker transition to open (the
// breaker machinery itself lives in internal/breaker).
func breakerOpened(scope string) {
	obs.Default.Counter("breaker_open_total", "scope", scope).Inc()
}

// attemptIDs issues process-unique navigation-attempt tags. Flows captured
// during an attempt carry its tag, so a failed attempt's partial traffic
// can be quarantined (capture.DB.RemoveAttempt) without touching any other
// attempt — including flows preloaded from a checkpoint, whose tags are
// cleared on resume.
var attemptIDs atomic.Int64

// CampaignConfig selects what a crawl visits and how.
type CampaignConfig struct {
	// Browsers are profile names; nil means every browser in the world.
	Browsers []string
	// Sites to visit; nil means the world's full dataset.
	Sites []*websim.Site
	// Incognito crawls in private mode (browsers without one are
	// skipped, as the paper's footnote 5 notes for Yandex and QQ).
	Incognito bool
	// SkipReset keeps app data across the campaign (used by the
	// persistent-identifier experiment).
	SkipReset bool
	// Settle is the post-DOMContentLoaded wait (paper: 5 s).
	Settle time.Duration
	// NavigateTimeout is the page-load ceiling (paper: 60 s, wall clock
	// on the CDP channel), enforced end to end: it also caps the engine's
	// per-request wall time, so a wedged origin cannot outlive it.
	NavigateTimeout time.Duration
	// Parallelism is how many browsers are crawled concurrently. Each
	// browser has its own UID, Appium session and iptables diversion, so
	// the crawl is embarrassingly parallel per browser; 1 preserves the
	// sequential behaviour and 0 (the default) means GOMAXPROCS.
	Parallelism int

	// MaxAttempts bounds navigations per site, first try included
	// (default 3). Failed attempts roll the session back, quarantine
	// their partial flows and retry with exponential backoff on the
	// virtual clock.
	MaxAttempts int
	// RetryBackoff is the base backoff between attempts, doubled per
	// retry plus deterministic jitter, advanced on the virtual clock
	// (default 500ms).
	RetryBackoff time.Duration
	// BreakerThreshold opens a circuit breaker after that many
	// consecutive failed visits against one host or one browser
	// (default 5); BreakerCooldown is how long it stays open on the
	// virtual clock (default 2 minutes). While open, visits are skipped
	// and recorded with class "breaker_open".
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// StopAfterVisits pauses the campaign after that many recorded
	// visits across all browsers (0 = run to completion); combine with
	// Checkpoint to split a crawl across processes.
	StopAfterVisits int
	// Checkpoint attaches a resumable snapshot to the result.
	Checkpoint bool
	// Resume continues a checkpointed campaign: completed (browser,
	// site) pairs are skipped, their visit records and captured flows
	// re-adopted, and each browser's session state restored.
	Resume *Checkpoint
}

func (c *CampaignConfig) defaults(w *World) {
	if c.Browsers == nil {
		for _, p := range profiles.All() {
			if _, ok := w.Browsers[p.Name]; ok {
				c.Browsers = append(c.Browsers, p.Name)
			}
		}
	}
	if c.Sites == nil {
		c.Sites = w.Sites
	}
	if c.Settle <= 0 {
		c.Settle = 5 * time.Second
	}
	if c.NavigateTimeout <= 0 {
		c.NavigateTimeout = 60 * time.Second
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Minute
	}
}

// VisitRecord is one page visit's outcome.
type VisitRecord struct {
	Browser    string
	URL        string
	LoadTimeMs int64
	Err        string
	// ErrClass is the stable classification of Err (faultsim.Classify):
	// dns, connect_refused, tls, timeout, cdp, crash, reset, http_error,
	// breaker_open, setup, ... Empty on success.
	ErrClass string
	// Attempts is how many navigation attempts the visit took (0 when it
	// never ran, e.g. skipped by an open breaker or a dead browser).
	Attempts int
}

// CampaignResult summarises a crawl.
type CampaignResult struct {
	Visits  []VisitRecord
	Skipped []string // browsers skipped (e.g. no incognito mode)
	Errors  int
	// Retries counts navigation attempts that were retried; Degraded
	// counts visits that ended with an error record instead of a page.
	Retries  int
	Degraded int
	// Stopped reports the campaign paused on StopAfterVisits rather than
	// finishing; Checkpoint carries the resumable snapshot when
	// CampaignConfig.Checkpoint was set.
	Stopped    bool
	Checkpoint *Checkpoint
}

// crawlOutcome is one browser's crawl as a worker produced it, merged
// into the CampaignResult in profile order after the pool drains.
type crawlOutcome struct {
	name      string
	visits    []VisitRecord
	completed []string
	errors    int
	retries   int
	degraded  int
	state     *browser.SessionState
}

// sharedCrawl is the cross-worker campaign state: per-host breakers and
// the recorded-visit budget.
type sharedCrawl struct {
	hosts     *breaker.Set
	committed atomic.Int64
	stopped   atomic.Bool
}

// RunCampaign reproduces §2.1's crawl procedure per browser: reset to
// factory settings via Appium, launch, click through the setup wizard,
// divert the browser's UID into the proxy, instrument (CDP or Frida) so
// every engine request is tainted, visit each site (waiting
// DOMContentLoaded plus the settle period on the virtual clock), then
// tear down.
//
// Browsers are crawled by a pool of cfg.Parallelism workers. Each
// browser is an isolated unit of work (own UID, Appium session,
// diversion rule, activity clock), so workers only contend on the
// capture stores, the proxy's singleflighted cert cache and the
// serialized world clock. Per-browser visit records are collected
// privately and merged in cfg.Browsers order, making the result — and
// everything the analysis package derives from the capture databases —
// independent of the parallelism level.
//
// The crawl degrades rather than aborts: a failed visit becomes a
// VisitRecord with a classified error (its partial flows quarantined), a
// crashed or unresponsive browser is relaunched with its session
// restored, and a browser that cannot be recovered yields error records
// for its remaining sites while the other browsers finish. The only
// upfront failure is an unknown browser name.
func (w *World) RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	cfg.defaults(w)
	result := &CampaignResult{}
	mCampaigns.Inc()
	mCampaignProg.Set(0)
	mParallelism.Set(float64(cfg.Parallelism))

	// Resolve every profile up front so an unknown browser name fails
	// before any crawl starts, exactly as the sequential loop did.
	type job struct {
		idx  int
		name string
		b    *browser.Browser
	}
	var jobs []job
	for _, name := range cfg.Browsers {
		b, err := w.Browser(name)
		if err != nil {
			return nil, err
		}
		if cfg.Incognito && !b.Profile.HasIncognito {
			result.Skipped = append(result.Skipped, name)
			continue
		}
		jobs = append(jobs, job{idx: len(jobs), name: name, b: b})
	}

	// A checkpoint snapshots the stores, so it needs them fully
	// retained; refuse early rather than writing an empty snapshot.
	if cfg.Checkpoint && !w.DB.FullyRetained() {
		return nil, fmt.Errorf("core: checkpointing requires full flow retention: rerun with -retain=all (the current retention mode drops flows after streaming analysis, so the snapshot would be empty)")
	}

	// Re-adopt a checkpoint's committed flows before any crawl starts.
	// Their attempt tags are cleared: they are committed history, not
	// candidates for this run's quarantine. The commit tap replays them
	// into the streaming analyzers, so a resumed run's incremental state
	// picks up exactly where the checkpointed run left off.
	if cfg.Resume != nil {
		// The checkpointed flows were already committed — and, with an
		// export plane wired, already published — before the crash. Seed
		// the exporter's dedupe set with their IDs and fast-forward the
		// ID allocator past them, so replaying them through the tap below
		// cannot double-publish and fresh flows cannot collide.
		if w.Exporter != nil {
			var maxID int64
			ids := make([]int64, 0, len(cfg.Resume.Engine)+len(cfg.Resume.Native))
			for _, f := range append(append([]*capture.Flow{}, cfg.Resume.Engine...), cfg.Resume.Native...) {
				ids = append(ids, f.ID)
				if f.ID > maxID {
					maxID = f.ID
				}
			}
			capture.EnsureFlowIDsAbove(maxID)
			w.Exporter.SeedExported(ids)
		}
		for _, f := range cfg.Resume.Engine {
			f.Attempt = 0
			w.DB.Engine.Add(f)
		}
		for _, f := range cfg.Resume.Native {
			f.Attempt = 0
			w.DB.Native.Add(f)
		}
		result.Retries += cfg.Resume.Retries
		result.Degraded += cfg.Resume.Degraded
	}

	workers := cfg.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	shared := &sharedCrawl{hosts: breaker.NewSet(cfg.BreakerThreshold, cfg.BreakerCooldown)}
	outcomes := make([]crawlOutcome, len(jobs))
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(workerID int) {
			defer wg.Done()
			visits := obs.Default.Counter("core_worker_visits_total", "worker", strconv.Itoa(workerID))
			for j := range jobCh {
				outcomes[j.idx] = w.crawlBrowser(j.b, cfg, visits, shared)
				mBrowsersDone.Inc()
			}
		}(i)
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()

	// Deterministic merge: visit records in profile order, each
	// browser's sites in visit order, whatever the workers' interleaving.
	for _, out := range outcomes {
		result.Visits = append(result.Visits, out.visits...)
		result.Errors += out.errors
		result.Retries += out.retries
		result.Degraded += out.degraded
	}
	result.Stopped = shared.stopped.Load()
	if cfg.Checkpoint {
		cp := &Checkpoint{
			Incognito: cfg.Incognito,
			Browsers:  make(map[string]*BrowserCheckpoint, len(outcomes)),
			Skipped:   result.Skipped,
			Retries:   result.Retries,
			Degraded:  result.Degraded,
		}
		for _, out := range outcomes {
			cp.Browsers[out.name] = &BrowserCheckpoint{
				Completed: out.completed,
				State:     out.state,
				Visits:    out.visits,
			}
		}
		cp.Engine = w.DB.Engine.All()
		cp.Native = w.DB.Native.All()
		result.Checkpoint = cp
	}
	return result, nil
}

// retryDelay is the exponential backoff with deterministic jitter: base
// doubled per retry plus a hash fraction of it, so concurrent workers
// de-synchronize without sacrificing reproducibility.
func retryDelay(base time.Duration, attempt int, browserName, url string) time.Duration {
	d := base << uint(attempt-1)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", browserName, url, attempt)
	return d + time.Duration(h.Sum64()%uint64(d/2+1))
}

// crawlBrowser runs one browser's full crawl, absorbing faults: failed
// visits degrade to classified error records, crashed browsers are
// relaunched mid-crawl, and setup failures degrade every remaining site
// instead of discarding the visits already completed.
func (w *World) crawlBrowser(b *browser.Browser, cfg CampaignConfig, workerVisits *obs.Counter, shared *sharedCrawl) (out crawlOutcome) {
	name := b.Profile.Name
	out.name = name

	var bc *BrowserCheckpoint
	if cfg.Resume != nil {
		bc = cfg.Resume.Browsers[name]
	}
	completedSet := make(map[string]bool)
	if bc != nil {
		out.completed = append(out.completed, bc.Completed...)
		out.visits = append(out.visits, bc.Visits...)
		for _, url := range bc.Completed {
			completedSet[url] = true
		}
		for _, v := range bc.Visits {
			if v.Err != "" {
				out.errors++
			}
		}
	}
	resuming := bc != nil && bc.State != nil

	// degradeFrom records a classified error for every not-yet-visited
	// site from idx on — the graceful-degradation contract: a setup
	// failure or dead browser yields a partial campaign, never a lost one.
	degradeFrom := func(idx int, err error, class string) {
		msg := err.Error()
		for _, site := range cfg.Sites[idx:] {
			url := site.URL()
			if completedSet[url] {
				continue
			}
			out.visits = append(out.visits, VisitRecord{
				Browser: name, URL: url, Err: msg, ErrClass: class,
			})
			out.errors++
			out.degraded++
			out.completed = append(out.completed, url)
			mVisitErr.Inc()
		}
	}

	sess, err := w.AppiumClient.NewSession(b.Pkg.Name)
	if err != nil {
		degradeFrom(0, fmt.Errorf("appium session: %w", err), "setup")
		return out
	}
	launched := false
	defer func() {
		if launched {
			if err := sess.Terminate(); err != nil {
				obs.Default.Counter("core_teardown_errors_total", "op", "appium_terminate").Inc()
			}
		}
		if err := sess.Close(); err != nil {
			obs.Default.Counter("core_teardown_errors_total", "op", "appium_close").Inc()
		}
	}()

	if resuming {
		// Restore the persistent identifier before launch so the
		// relaunched app reads the original install UUID from storage
		// (Launch would otherwise mint a fresh one).
		if bc.State.UUID != "" {
			if err := w.Device.StoragePut(b.Pkg.Name, "install_uuid", bc.State.UUID); err != nil {
				degradeFrom(0, fmt.Errorf("resume uuid: %w", err), "setup")
				return out
			}
		}
	} else if !cfg.SkipReset {
		if err := sess.Reset(); err != nil {
			degradeFrom(0, fmt.Errorf("appium reset: %w", err), "setup")
			return out
		}
	} else if b.Running() {
		b.Stop()
	}
	if err := sess.Launch(); err != nil {
		degradeFrom(0, fmt.Errorf("appium launch: %w", err), "setup")
		return out
	}
	launched = true
	if err := sess.CompleteWizard(); err != nil {
		degradeFrom(0, fmt.Errorf("setup wizard: %w", err), "setup")
		return out
	}

	// Divert the browser's kernel UID into the transparent proxy.
	if !w.Device.DiversionActive(b.UID()) {
		if err := w.Device.DivertBrowser(b.UID(), ProxyAddr); err != nil {
			degradeFrom(0, fmt.Errorf("iptables diversion: %w", err), "setup")
			return out
		}
	}

	if cfg.Incognito {
		if err := b.SetIncognito(true); err != nil {
			degradeFrom(0, err, "setup")
			return out
		}
		defer b.SetIncognito(false)
	}

	// NavigateTimeout end to end: the engine's per-request wall ceiling
	// matches the CDP channel's, so a wedged origin cannot hold a visit
	// past it.
	b.SetNavigateTimeout(cfg.NavigateTimeout)
	if resuming {
		b.RestoreSession(bc.State)
	}

	navigate, teardown, err := w.instrument(b)
	if err != nil {
		degradeFrom(0, fmt.Errorf("instrumentation: %w", err), "setup")
		return out
	}
	defer func() {
		if err := teardown(); err != nil {
			obs.Default.Counter("core_teardown_errors_total", "op", "instrument").Inc()
		}
	}()

	// recoverBrowser brings a crashed (or CDP-wedged) browser back:
	// surface the dead instrumentation's teardown error, relaunch the
	// app (the persistent UUID survives in storage), restore the session
	// snapshot taken before the failed attempt, and re-instrument.
	recoverBrowser := func(snap *browser.SessionState) error {
		if err := teardown(); err != nil {
			obs.Default.Counter("core_teardown_errors_total", "op", "instrument").Inc()
		}
		teardown = func() error { return nil }
		if b.Running() {
			b.Stop()
		}
		if err := sess.Launch(); err != nil {
			return fmt.Errorf("relaunch: %w", err)
		}
		b.SetNavigateTimeout(cfg.NavigateTimeout)
		b.RestoreSession(snap)
		nav2, td2, err := w.instrument(b)
		if err != nil {
			return fmt.Errorf("re-instrument: %w", err)
		}
		navigate, teardown = nav2, td2
		return nil
	}

	bb := breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown)
	for siteIdx, site := range cfg.Sites {
		url := site.URL()
		if completedSet[url] {
			continue
		}
		if shared.stopped.Load() {
			// Visit budget exhausted: leave the rest for a resume.
			break
		}

		host := faultsim.HostOf(url)
		hb := shared.hosts.Get(host)
		now := w.Clock.Now()
		if !bb.Allow(now) || !hb.Allow(now) {
			rec := VisitRecord{
				Browser: name, URL: url,
				Err:      fmt.Sprintf("core: circuit breaker open for %s", host),
				ErrClass: "breaker_open",
			}
			out.visits = append(out.visits, rec)
			out.completed = append(out.completed, url)
			out.errors++
			out.degraded++
			mVisitErr.Inc()
			mCampaignProg.Inc()
			continue
		}

		visitSpan := w.Trace.Start("visit")
		visitSpan.SetAttr("browser", name)
		visitSpan.SetAttr("url", url)
		w.Trace.SetActive(b.UID(), visitSpan)

		rec := VisitRecord{Browser: name, URL: url}
		var lastErr, unrecoverable error
		for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
			rec.Attempts = attempt
			snap := b.SessionState()
			aid := attemptIDs.Add(1)
			w.Faults.BeginAttempt(b.UID(), name, url, attempt)
			w.Visits.BeginVisitAttempt(b.UID(), url, cfg.Incognito, aid)

			navSpan := visitSpan.Child("navigate")
			navSpan.SetAttr("attempt", strconv.Itoa(attempt))
			loadMs, navErr := navigate(url, cfg.NavigateTimeout)
			if navErr != nil {
				// A wall-clock timeout abandons the CDP/Frida call while
				// its handler may still be mid-navigation. Fence before
				// rolling anything back so the zombie's state mutations
				// and captured flows land inside this attempt's window
				// (and its quarantine). A navigation wedged past the
				// bound (hung origin) only resumes after the campaign's
				// goroutines join, so skipping it is race-free.
				b.Quiesce(cfg.NavigateTimeout)
			}
			w.Visits.EndVisit(b.UID())
			w.Faults.EndAttempt(b.UID())

			if navErr == nil {
				// The attempt's flows are committed: the capture gate
				// files or spills them and hands them to the commit tap
				// (analyzers, export plane) in capture order.
				w.DB.SealAttempt(aid)
				// Commit: DOMContentLoaded (modelled load time) plus the
				// settle window, on the virtual clock — §2.1's wait
				// discipline. The advance is split so the navigate and
				// settle spans carry their real virtual durations.
				// Concurrent workers serialize on the world clock (flow
				// timestamps, TLS validation time) but each drives only
				// its own browser's activity clock, so a browser's idle
				// phone-home curve sees the same timeline at any
				// parallelism level.
				rec.LoadTimeMs = loadMs
				w.Clock.Advance(time.Duration(loadMs) * time.Millisecond)
				navSpan.End()
				settleSpan := visitSpan.Child("settle")
				w.Clock.Advance(cfg.Settle)
				settleSpan.End()
				b.AdvanceActivity(time.Duration(loadMs)*time.Millisecond + cfg.Settle)
				mVisitLatency.Observe((time.Duration(loadMs)*time.Millisecond + cfg.Settle).Seconds())
				lastErr = nil
				break
			}

			lastErr = navErr
			navSpan.SetAttr("error", navErr.Error())
			navSpan.End()
			// Quarantine the failed attempt's partial flows: they belong
			// to no committed visit and would otherwise pollute the
			// analyses.
			w.DB.RemoveAttempt(aid)

			switch faultsim.Classify(navErr) {
			case "crash", "cdp":
				// The app died or its DevTools socket wedged; nothing
				// short of a relaunch will answer again. Session state
				// rolls back to the pre-attempt snapshot either way.
				if rerr := recoverBrowser(snap); rerr != nil {
					unrecoverable = rerr
				}
			default:
				b.RestoreSession(snap)
			}
			if unrecoverable != nil || attempt == cfg.MaxAttempts {
				break
			}

			out.retries++
			mVisitRetries.Inc()
			delay := retryDelay(cfg.RetryBackoff, attempt, name, url)
			backoffSpan := visitSpan.Child("backoff")
			backoffSpan.SetAttr("attempt", strconv.Itoa(attempt))
			backoffSpan.SetAttr("delay", delay.String())
			w.Clock.Advance(delay)
			backoffSpan.End()
		}
		w.Trace.SetActive(b.UID(), nil)
		visitSpan.End()

		ok := lastErr == nil
		if ok {
			mVisitOK.Inc()
		} else {
			rec.Err = lastErr.Error()
			rec.ErrClass = faultsim.Classify(lastErr)
			out.errors++
			out.degraded++
			mVisitErr.Inc()
		}
		if bb.Record(ok, w.Clock.Now()) {
			breakerOpened("browser")
		}
		if hb.Record(ok, w.Clock.Now()) {
			breakerOpened("host")
		}
		out.visits = append(out.visits, rec)
		out.completed = append(out.completed, url)
		mCampaignProg.Inc()
		workerVisits.Inc()

		if unrecoverable != nil {
			degradeFrom(siteIdx+1, fmt.Errorf("browser unrecoverable: %w", unrecoverable), faultsim.Classify(unrecoverable))
			break
		}
		if cfg.StopAfterVisits > 0 && shared.committed.Add(1) >= int64(cfg.StopAfterVisits) {
			shared.stopped.Store(true)
			break
		}
	}

	if b.Running() {
		out.state = b.SessionState()
	}
	return out
}

// navigateFunc drives one page visit and returns the modelled load time.
type navigateFunc func(url string, timeout time.Duration) (int64, error)

// instrument attaches the taint-injection instrumentation: CDP Fetch
// interception for CDP browsers, a Frida request hook for the rest.
// It returns the navigation driver and a teardown whose error the
// campaign surfaces into core_teardown_errors_total.
func (w *World) instrument(b *browser.Browser) (navigateFunc, func() error, error) {
	switch b.Profile.Instrumentation {
	case profiles.InstrumentCDP:
		return w.instrumentCDP(b)
	case profiles.InstrumentFrida:
		return w.instrumentFrida(b)
	}
	return nil, nil, fmt.Errorf("unknown instrumentation %q", b.Profile.Instrumentation)
}

func (w *World) instrumentCDP(b *browser.Browser) (navigateFunc, func() error, error) {
	wsURL := b.DevToolsURL()
	client, err := cdp.Dial(wsURL, func(addr string) (net.Conn, error) {
		return w.Inet.Dial(context.Background(), addr)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cdp dial %s: %w", wsURL, err)
	}
	for _, m := range []string{cdp.MethodPageEnable, cdp.MethodNetworkEnable, cdp.MethodFetchEnable} {
		if err := client.Call(m, nil, nil); err != nil {
			client.Close()
			return nil, nil, fmt.Errorf("%s: %w", m, err)
		}
	}
	// The taint injector: every paused engine request is continued with
	// the campaign token added (§2.3).
	client.On(cdp.EventRequestPaused, func(raw json.RawMessage) {
		var p cdp.RequestPausedParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return
		}
		sp := w.Trace.Active(b.UID()).Child("cdp.intercept")
		headers := taint.InjectCDP(p.Request.Headers, w.Token)
		go func() {
			client.Call(cdp.MethodFetchContinue, cdp.ContinueParams{
				RequestID: p.RequestID, Headers: headers,
			}, nil)
			sp.End()
		}()
	})

	nav := func(url string, timeout time.Duration) (int64, error) {
		var res cdp.NavigateResult
		if err := client.CallTimeout(cdp.MethodPageNavigate, cdp.NavigateParams{URL: url}, &res, timeout); err != nil {
			return 0, err
		}
		if res.ErrorText != "" {
			return res.LoadTimeMs, fmt.Errorf("navigation: %s", res.ErrorText)
		}
		return res.LoadTimeMs, nil
	}
	teardown := func() error {
		callErr := client.Call(cdp.MethodFetchDisable, nil, nil)
		closeErr := client.Close()
		if callErr != nil {
			return callErr
		}
		return closeErr
	}
	return nav, teardown, nil
}

func (w *World) instrumentFrida(b *browser.Browser) (navigateFunc, func() error, error) {
	sess, err := frida.Attach(w.FridaDev, b.Pkg.Name)
	if err != nil {
		return nil, nil, err
	}
	token := w.Token
	uid := b.UID()
	if err := sess.InterceptRequests(func(req *http.Request) error {
		sp := w.Trace.Active(uid).Child("frida.intercept")
		taint.Inject(req.Header, token)
		sp.End()
		return nil
	}); err != nil {
		return nil, nil, err
	}
	nav := func(url string, timeout time.Duration) (int64, error) {
		// Frida's RPC has no deadline of its own; bound it here so
		// NavigateTimeout holds for Frida browsers too.
		type loadResult struct {
			ms  int64
			err error
		}
		ch := make(chan loadResult, 1)
		go func() {
			ms, err := sess.CallLoadURL(url)
			ch <- loadResult{ms, err}
		}()
		select {
		case r := <-ch:
			return r.ms, r.err
		case <-time.After(timeout):
			return 0, fmt.Errorf("frida: LoadURL %s timed out after %v", url, timeout)
		}
	}
	teardown := func() error {
		sess.Detach()
		return nil
	}
	return nav, teardown, nil
}

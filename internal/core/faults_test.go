package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/faultsim"
	"panoptes/internal/leak"
	"panoptes/internal/obs"
	"panoptes/internal/pii"
	"panoptes/internal/profiles"
	"panoptes/internal/websim"
)

// faultBrowsers mixes both instrumentation paths: Chrome and Brave are
// CDP-driven, UC International is Frida-driven (and injects the
// history-leak script, so the leak analysis has something to find).
var faultBrowsers = []string{"Chrome", "Brave", "UC International"}

// keystonePlan arms every fault kind whose failure mode is independent of
// wall time, at a nonzero rate. CDPStall is deliberately absent: its
// failure is delivered by the wall-clock NavigateTimeout, which this test
// sets high enough that real navigations never trip it under -race (a
// genuine slow run failing an attempt would break run-to-run determinism).
// TestCrashRecovery covers the stall path with a scripted fault instead.
// MaxFaultAttempts defaults to 2, so with the default MaxAttempts of 3
// every visit commits by its third attempt and the campaign converges to
// the fault-free analyses.
func keystonePlan() faultsim.Plan {
	return faultsim.Plan{
		Seed: 42,
		Rates: map[faultsim.Kind]float64{
			faultsim.DNSNXDomain:  0.15,
			faultsim.ConnRefused:  0.15,
			faultsim.ConnTimeout:  0.10,
			faultsim.TLSHandshake: 0.12,
			faultsim.PinReject:    0.08,
			faultsim.ReadTimeout:  0.12,
			faultsim.StreamReset:  0.12,
			faultsim.HTTP5xx:      0.12,
			faultsim.SlowResponse: 0.20,
			faultsim.BrowserCrash: 0.12,
		},
	}
}

// runFaultCampaign crawls 3 sites with faultBrowsers and returns the
// determinism-contract analyses. With viaCheckpoint it stops after 4
// recorded visits, JSON round-trips the checkpoint, and resumes in a
// fresh world — the merged outcome must match an uninterrupted run.
func runFaultCampaign(t *testing.T, parallelism int, faulty, viaCheckpoint bool) ([]analysis.Fig2Row, pii.Matrix, []leak.Finding, *CampaignResult) {
	t.Helper()
	newWorld := func() *World {
		w := smallWorld(t, 3, faultBrowsers...)
		if faulty {
			w.InstallFaults(faultsim.New(keystonePlan()))
		}
		return w
	}
	base := CampaignConfig{Parallelism: parallelism, NavigateTimeout: 20 * time.Second}

	w := newWorld()
	var res *CampaignResult
	if !viaCheckpoint {
		r, err := w.RunCampaign(base)
		if err != nil {
			t.Fatal(err)
		}
		res = r
	} else {
		first := base
		first.StopAfterVisits = 4
		first.Checkpoint = true
		r1, err := w.RunCampaign(first)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Stopped || r1.Checkpoint == nil {
			t.Fatalf("campaign did not stop on budget: stopped=%v checkpoint=%v", r1.Stopped, r1.Checkpoint != nil)
		}
		data, err := json.Marshal(r1.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		cp := &Checkpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			t.Fatal(err)
		}
		w = newWorld()
		second := base
		second.Resume = cp
		r2, err := w.RunCampaign(second)
		if err != nil {
			t.Fatal(err)
		}
		res = r2
	}

	// Every attempt ends sealed or removed: a flow still parked in the
	// capture gate would be missing from the analyses without a trace.
	if n := w.DB.Engine.Pending() + w.DB.Native.Pending(); n != 0 {
		t.Fatalf("%d flows stranded in the capture gate", n)
	}
	assertStreamingMatchesBatch(t, w)

	rs := replaySuite(w)
	leaks := rs.LeakNative.Findings()
	for i := range leaks {
		leaks[i].FlowID = 0 // process-global ticket numbers, not data
	}
	return rs.Fig2.Rows(), rs.PII.Matrix(), leaks, res
}

// replaySuite builds a fresh analysis suite over w's fleet and replays
// w's retained flow databases through it.
func replaySuite(w *World) *analysis.Suite {
	s := analysis.NewSuite(w.Hostlist, w.Suite.Names())
	s.Replay(w.DB)
	return s
}

// namedResult is one analysis output under its name.
type namedResult struct {
	name string
	v    any
}

// suiteResults lists every analysis a suite holds, all ten analyzers
// plus the Table 2 findings, in a fixed order.
func suiteResults(s *analysis.Suite) []namedResult {
	return []namedResult{
		{"fig2", s.Fig2.Finalize()},
		{"fig3", s.Fig3.Finalize()},
		{"fig4", s.Fig4.Finalize()},
		{"table2-matrix", s.PII.Finalize()},
		{"table2-findings", s.PII.Findings()},
		{"leaks-native", s.LeakNative.Finalize()},
		{"leaks-engine", s.LeakEngine.Finalize()},
		{"dns", s.DNS.Finalize()},
		{"trackable", s.Trackable.Finalize()},
		{"listing1", s.Listing1.Finalize()},
		{"transport", s.Transport.Finalize()},
	}
}

// assertStreamingMatchesBatch is the live-vs-replay golden check: every
// analysis the world's suite folded in on the commit tap (quarantined
// attempts and all) must JSON-serialize to the same bytes as a fresh
// suite after Suite.Replay of the retained flow databases. Called from
// runFaultCampaign and runDataPlaneCampaign, it covers the clean run
// and every straight/resume × parallelism variant.
func assertStreamingMatchesBatch(t *testing.T, w *World) {
	t.Helper()
	live, replay := suiteResults(w.Suite), suiteResults(replaySuite(w))
	for i, l := range live {
		lj, err := json.Marshal(l.v)
		if err != nil {
			t.Fatalf("%s: marshal live result: %v", l.name, err)
		}
		rj, err := json.Marshal(replay[i].v)
		if err != nil {
			t.Fatalf("%s: marshal replayed result: %v", l.name, err)
		}
		if !bytes.Equal(lj, rj) {
			t.Errorf("live %s diverges from replay:\nlive   %s\nreplay %s", l.name, lj, rj)
		}
	}
}

// TestFaultCampaignDeterminism is the resilience keystone: under a
// nonzero fault plan with retries enabled, the analyses over committed
// visits are identical to the fault-free run — and identical whether the
// campaign runs straight through or checkpoint+resumed, at parallelism 1
// and 8.
func TestFaultCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("five multi-browser crawls")
	}
	fig2Clean, t2Clean, leaksClean, resClean := runFaultCampaign(t, 1, false, false)
	if resClean.Errors != 0 {
		t.Fatalf("fault-free baseline had %d errors: %+v", resClean.Errors, resClean.Visits)
	}

	type variant struct {
		name          string
		parallelism   int
		viaCheckpoint bool
	}
	variants := []variant{
		{"straight/p1", 1, false},
		{"straight/p8", 8, false},
		{"resume/p1", 1, true},
		{"resume/p8", 8, true},
	}
	var refVisits []VisitRecord
	var refRetries int
	for i, v := range variants {
		fig2, t2, leaks, res := runFaultCampaign(t, v.parallelism, true, v.viaCheckpoint)
		if res.Errors != 0 {
			t.Fatalf("%s: %d visits failed terminally under a converging plan: %+v", v.name, res.Errors, res.Visits)
		}
		if i == 0 {
			if res.Retries == 0 {
				t.Fatal("fault plan injected nothing: no attempt was ever retried")
			}
			refVisits, refRetries = res.Visits, res.Retries
		} else {
			if !reflect.DeepEqual(res.Visits, refVisits) {
				t.Errorf("%s: visit records diverge from straight/p1:\ngot  %+v\nwant %+v", v.name, res.Visits, refVisits)
			}
			if res.Retries != refRetries {
				t.Errorf("%s: retries = %d, want %d", v.name, res.Retries, refRetries)
			}
		}
		if !reflect.DeepEqual(fig2, fig2Clean) {
			t.Errorf("%s: Fig2 diverges from the fault-free run:\ngot  %+v\nwant %+v", v.name, fig2, fig2Clean)
		}
		if !reflect.DeepEqual(t2, t2Clean) {
			t.Errorf("%s: Table2 matrix diverges from the fault-free run:\ngot  %+v\nwant %+v", v.name, t2, t2Clean)
		}
		if !reflect.DeepEqual(leaks, leaksClean) {
			t.Errorf("%s: history leaks diverge from the fault-free run:\ngot  %+v\nwant %+v", v.name, leaks, leaksClean)
		}
	}
}

// TestRetentionBoundedCampaign runs the faulty parallel campaign with
// flow retention off: every analysis must match a fully-retained run
// while zero flows stay resident — committed flows are analyzed on the
// commit tap and dropped, quarantined attempts are retracted straight
// out of the pending buffers.
func TestRetentionBoundedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-browser crawls")
	}
	run := func(retain capture.RetainMode) *World {
		var profs []*profiles.Profile
		for _, n := range faultBrowsers {
			profs = append(profs, profiles.ByName(n))
		}
		w, err := NewWorld(WorldConfig{Sites: 3, Profiles: profs, Retain: retain})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		w.InstallFaults(faultsim.New(keystonePlan()))
		res, err := w.RunCampaign(CampaignConfig{Parallelism: 8, NavigateTimeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("retain=%v: %d visits failed terminally: %+v", retain, res.Errors, res.Visits)
		}
		if res.Retries == 0 {
			t.Fatalf("retain=%v: fault plan injected nothing", retain)
		}
		return w
	}
	full := run(capture.RetainAll)
	none := run(capture.RetainNone)

	if n := none.DB.Engine.Len() + none.DB.Native.Len(); n != 0 {
		t.Fatalf("retain=none left %d flows resident", n)
	}
	for _, w := range []*World{full, none} {
		if n := w.DB.Engine.Pending() + w.DB.Native.Pending(); n != 0 {
			t.Fatalf("%d flows stranded in the capture gate", n)
		}
	}
	if none.DB.Engine.Seen() == 0 || none.DB.Native.Seen() == 0 {
		t.Fatal("retain=none run committed no flows")
	}

	// Flow IDs are process-global ticket numbers, so the two worlds'
	// findings carry different IDs for the same leaks; zero them before
	// comparing. Everything else must agree exactly.
	scrub := func(fs []leak.Finding) []leak.Finding {
		for i := range fs {
			fs[i].FlowID = 0
		}
		return fs
	}
	suiteResults := func(w *World) map[string]any {
		body, query := w.Suite.Listing1.Result()
		return map[string]any{
			"fig2":         w.Suite.Fig2.Rows(),
			"fig3":         w.Suite.Fig3.Rows(),
			"fig4":         w.Suite.Fig4.Rows(),
			"table2":       w.Suite.PII.Matrix(),
			"leaks-native": scrub(w.Suite.LeakNative.Findings()),
			"leaks-engine": scrub(w.Suite.LeakEngine.Findings()),
			"dns":          w.Suite.DNS.Usage(),
			"trackable":    w.Suite.Trackable.IDs(),
			"listing1":     [2]string{body, query},
		}
	}
	want, got := suiteResults(full), suiteResults(none)
	for name := range want {
		wj, err := json.Marshal(want[name])
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Errorf("retain=none %s diverges from retain=all:\nnone %s\nall  %s", name, gj, wj)
		}
	}

	// A bounded world cannot checkpoint: the snapshot would be missing
	// its flows.
	if _, err := none.RunCampaign(CampaignConfig{Checkpoint: true}); err == nil {
		t.Error("checkpointing with retention off did not error")
	}
}

// TestInjectedNetworkErrorsClassify is the error-path propagation test:
// netsim's ErrNoSuchHost / ErrConnRefused and MITM-layer faults surface
// through webengine.Navigate and the proxy as classified visit errors —
// no panics, no hangs, and the failed attempts' partial flows are
// quarantined.
func TestInjectedNetworkErrorsClassify(t *testing.T) {
	w := smallWorld(t, 4, "Chrome")
	kinds := []faultsim.Kind{
		faultsim.DNSNXDomain, faultsim.ConnRefused,
		faultsim.TLSHandshake, faultsim.StreamReset,
	}
	wantClass := []string{"dns", "connect_refused", "tls", "reset"}
	plan := faultsim.Plan{Seed: 7}
	for i, k := range kinds {
		plan.Scripted = append(plan.Scripted, faultsim.ScriptedFault{
			Kind: k, Browser: "Chrome", Host: faultsim.HostOf(w.Sites[i].URL()),
		})
	}
	w.InstallFaults(faultsim.New(plan))

	res, err := w.RunCampaign(CampaignConfig{
		Sites: w.Sites[:4], MaxAttempts: 1, NavigateTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 4 || res.Degraded != 4 {
		t.Fatalf("visits=%d degraded=%d, want 4/4: %+v", len(res.Visits), res.Degraded, res.Visits)
	}
	for i, v := range res.Visits {
		if v.Err == "" {
			t.Errorf("visit %d (%s): fault %s produced no error", i, v.URL, kinds[i])
		}
		if v.ErrClass != wantClass[i] {
			t.Errorf("visit %d (%s): class = %q (err %q), want %q", i, v.URL, v.ErrClass, v.Err, wantClass[i])
		}
	}
}

// TestCrashRecovery checks a mid-campaign browser crash (and a wedged
// DevTools socket) cost one retry each, not the browser's crawl: the app
// is relaunched with its session restored and every visit commits.
func TestCrashRecovery(t *testing.T) {
	w := smallWorld(t, 3, "Chrome")
	inj := faultsim.New(faultsim.Plan{Seed: 1, Scripted: []faultsim.ScriptedFault{
		{Kind: faultsim.BrowserCrash, Browser: "Chrome", Host: faultsim.HostOf(w.Sites[1].URL())},
		{Kind: faultsim.CDPStall, Browser: "Chrome", Host: faultsim.HostOf(w.Sites[2].URL())},
	}})
	w.InstallFaults(inj)

	res, err := w.RunCampaign(CampaignConfig{Sites: w.Sites[:3], NavigateTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (crash must be absorbed): %+v", res.Errors, res.Visits)
	}
	wantAttempts := []int{1, 2, 2}
	for i, v := range res.Visits {
		if v.Attempts != wantAttempts[i] {
			t.Errorf("visit %d: attempts = %d, want %d (%+v)", i, v.Attempts, wantAttempts[i], v)
		}
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want 2", res.Retries)
	}
	counts := inj.Counts()
	if counts[faultsim.BrowserCrash] != 1 || counts[faultsim.CDPStall] != 1 {
		t.Errorf("injected counts = %v, want one crash and one stall", counts)
	}
	if b := w.Browsers["Chrome"]; b.UUID() == "" {
		t.Error("browser lost its persistent identifier across the relaunch")
	}
}

// TestHostBreakerOpens checks the circuit breaker: after
// BreakerThreshold consecutive failed visits against one host, further
// visits are skipped with class breaker_open instead of burning retries.
func TestHostBreakerOpens(t *testing.T) {
	w := smallWorld(t, 1, "Chrome")
	site := w.Sites[0]
	w.InstallFaults(faultsim.New(faultsim.Plan{Seed: 3, Scripted: []faultsim.ScriptedFault{
		{Kind: faultsim.ConnRefused, Browser: "Chrome", Host: faultsim.HostOf(site.URL())},
	}}))

	res, err := w.RunCampaign(CampaignConfig{
		Sites:            []*websim.Site{site, site, site, site},
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantClass := []string{"connect_refused", "connect_refused", "breaker_open", "breaker_open"}
	for i, v := range res.Visits {
		if v.ErrClass != wantClass[i] {
			t.Errorf("visit %d: class = %q (err %q), want %q", i, v.ErrClass, v.Err, wantClass[i])
		}
	}
	if res.Degraded != 4 {
		t.Errorf("degraded = %d, want 4", res.Degraded)
	}
	if obs.Default.Sum("breaker_open_total") == 0 {
		t.Error("breaker_open_total never incremented")
	}
}

// TestChaosCampaign is the CI chaos smoke: a campaign at a 10% fault
// rate (armed + chaos SERVFAIL) must finish without aborting any
// browser, every failed visit must carry a classified error, and the
// exit-report numbers must be available.
func TestChaosCampaign(t *testing.T) {
	// Dolphin joins the chaos fleet so WebSocket telemetry frames (and
	// Chrome's h2 + DoH flows) ride through the fault injector too: the
	// smoke covers every data-plane transport, not just pooled h1.
	w := smallWorld(t, 4, "Chrome", "Mint", "Dolphin")
	inj := faultsim.New(faultsim.Plan{
		Seed:  99,
		Rates: faultsim.UniformRates(0.10),
		ChaosRates: map[faultsim.Kind]float64{
			faultsim.DNSServFail: 0.03,
			faultsim.DNSNXDomain: 0.01,
		},
	})
	w.InstallFaults(inj)

	res, err := w.RunCampaign(CampaignConfig{NavigateTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	perBrowser := map[string]int{}
	for _, v := range res.Visits {
		perBrowser[v.Browser]++
		if v.Err != "" && v.ErrClass == "" {
			t.Errorf("failed visit without a class: %+v", v)
		}
		if v.Err == "" && v.ErrClass != "" {
			t.Errorf("classified error on a committed visit: %+v", v)
		}
	}
	for _, name := range []string{"Chrome", "Mint", "Dolphin"} {
		if perBrowser[name] != len(w.Sites) {
			t.Errorf("browser %s has %d visit records, want %d (no browser may abort)",
				name, perBrowser[name], len(w.Sites))
		}
	}
	if inj.Total() == 0 {
		t.Error("chaos smoke injected no faults")
	}
	t.Logf("chaos smoke: %d faults injected (%s); %d retried; %d degraded",
		inj.Total(), inj.CountsString(), res.Retries, res.Degraded)
}

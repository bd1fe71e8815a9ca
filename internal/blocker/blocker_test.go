package blocker_test

import (
	"strings"
	"testing"

	"panoptes/internal/blocker"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/profiles"
)

// worldWithBlocker assembles a testbed whose proxy runs the blocker
// behind the taint splitter.
func worldWithBlocker(t *testing.T, policy blocker.Policy, names ...string) (*core.World, *blocker.Blocker) {
	t.Helper()
	var profs []*profiles.Profile
	for _, n := range names {
		profs = append(profs, profiles.ByName(n))
	}
	w, err := core.NewWorld(core.WorldConfig{Sites: 8, Profiles: profs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	b := blocker.New(policy, w.Hostlist)
	w.Proxy.Use(b)
	return w, b
}

func TestBlocksYandexHistoryLeaks(t *testing.T) {
	w, b := worldWithBlocker(t, blocker.DefaultPolicy(), "Yandex")
	if _, err := w.RunCampaign(core.CampaignConfig{Sites: w.Sites[:4]}); err != nil {
		t.Fatal(err)
	}
	// With the blocker active, no history leak reaches the vendor.
	findings := w.Suite.LeakNative.Findings()
	reached := 0
	for _, f := range findings {
		// Flows are recorded by the splitter before the veto; blocked
		// ones carry a 403 status and a veto error.
		for _, fl := range w.DB.Native.ByBrowser("Yandex") {
			if fl.ID == f.FlowID && fl.Err == "" {
				reached++
			}
		}
	}
	if reached != 0 {
		t.Fatalf("%d history leaks reached their destination", reached)
	}
	// And the vendor backend really saw nothing.
	if got := w.Vendors.Backend("sba.yandex.net").Count(); got != 0 {
		t.Fatalf("sba.yandex.net received %d requests despite blocking", got)
	}
	stats := b.Stats()
	if stats.NativeBlocked == 0 {
		t.Fatal("blocker blocked nothing")
	}
	if stats.ByReason[blocker.ReasonHistoryLeak] == 0 {
		t.Fatalf("no history-leak blocks: %+v", stats.ByReason)
	}
}

func TestEngineTrafficUntouched(t *testing.T) {
	w, b := worldWithBlocker(t, blocker.DefaultPolicy(), "Chrome")
	res, err := w.RunCampaign(core.CampaignConfig{Sites: w.Sites[:4]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("navigation errors with blocker active: %d", res.Errors)
	}
	// Every engine flow completed (no 403s).
	for _, f := range w.DB.Engine.ByBrowser("Chrome") {
		if strings.HasPrefix(f.Err, "vetoed") {
			t.Fatalf("engine flow vetoed: %+v", f)
		}
	}
	stats := b.Stats()
	if stats.EnginePassed == 0 {
		t.Fatal("no engine flows examined")
	}
}

func TestBlocksAdHostsAndPII(t *testing.T) {
	w, b := worldWithBlocker(t, blocker.DefaultPolicy(), "Kiwi", "Whale")
	if _, err := w.RunCampaign(core.CampaignConfig{Sites: w.Sites[:4]}); err != nil {
		t.Fatal(err)
	}
	stats := b.Stats()
	if stats.ByReason[blocker.ReasonAdHost] == 0 {
		t.Fatalf("no ad-host blocks (Kiwi talks to six ad networks): %+v", stats.ByReason)
	}
	if stats.ByReason[blocker.ReasonPII] == 0 {
		t.Fatalf("no PII blocks (Whale leaks local IP + rooted): %+v", stats.ByReason)
	}
	// Whale's PII beacons never reached Naver.
	for _, r := range w.Vendors.Backend("api-whale.naver.com").Requests() {
		if strings.Contains(r.Query, "localIp") || strings.Contains(r.Query, "rooted") {
			t.Fatalf("PII reached the vendor: %q", r.Query)
		}
	}
}

func TestAllowFirstPartyExemption(t *testing.T) {
	policy := blocker.DefaultPolicy()
	policy.AllowFirstParty = []string{"yandex.net"} // sba.yandex.net exempted
	w, _ := worldWithBlocker(t, policy, "Yandex")
	if _, err := w.RunCampaign(core.CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	if got := w.Vendors.Backend("sba.yandex.net").Count(); got == 0 {
		t.Fatal("allowlisted host was blocked")
	}
	// Non-exempt leak destinations still blocked: api.browser.yandex.ru
	// may receive benign idle config polls, but never a visit report.
	for _, r := range w.Vendors.Backend("api.browser.yandex.ru").Requests() {
		if strings.Contains(r.Query, "uuid=") || strings.Contains(r.Query, "host=") {
			t.Fatalf("visit report reached non-exempt host: %q", r.Query)
		}
	}
}

func TestPolicyToggles(t *testing.T) {
	// History-leak blocking off: Yandex reports flow again.
	policy := blocker.Policy{BlockAdHosts: true} // PII + history off
	w, b := worldWithBlocker(t, policy, "Yandex")
	if _, err := w.RunCampaign(core.CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	if got := w.Vendors.Backend("sba.yandex.net").Count(); got == 0 {
		t.Fatal("history leak blocked with BlockHistoryLeaks=false")
	}
	// Ad hosts still blocked.
	if got := w.Vendors.Backend("adfox.ru").Count(); got != 0 {
		t.Fatalf("ad host got %d requests", got)
	}
	if b.Stats().ByReason[blocker.ReasonHistoryLeak] != 0 {
		t.Fatal("history blocks recorded while disabled")
	}
}

// TestDecisionsLog: in a Yandex-only world every veto is one of
// Yandex's native requests, counted under a known reason.
func TestDecisionsLog(t *testing.T) {
	w, b := worldWithBlocker(t, blocker.DefaultPolicy(), "Yandex")
	if _, err := w.RunCampaign(core.CampaignConfig{Sites: w.Sites[:2]}); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.NativeBlocked == 0 {
		t.Fatal("no vetoes counted")
	}
	if st.NativeBlocked > st.NativeExamined {
		t.Fatalf("%d vetoes of %d native requests examined", st.NativeBlocked, st.NativeExamined)
	}
	sum := 0
	for r, n := range st.ByReason {
		switch r {
		case blocker.ReasonAdHost, blocker.ReasonPII, blocker.ReasonHistoryLeak:
		default:
			t.Fatalf("veto under unknown reason %q", r)
		}
		sum += n
	}
	if sum != st.NativeBlocked {
		t.Fatalf("reasons sum to %d, want %d vetoes", sum, st.NativeBlocked)
	}
}

func TestVetoUnitNoVisit(t *testing.T) {
	b := blocker.New(blocker.DefaultPolicy(), nil)
	// An idle-time native flow without a visit: only ad-host and PII
	// rules can fire.
	f := &capture.Flow{Origin: capture.OriginNative, Browser: "X", Host: "clean.example",
		RawQuery: "v=1"}
	if err := b.Veto(f, nil); err != nil {
		t.Fatalf("clean flow vetoed: %v", err)
	}
	f2 := &capture.Flow{Origin: capture.OriginNative, Browser: "X", Host: "doubleclick.net"}
	if err := b.Veto(f2, nil); err == nil {
		t.Fatal("ad host not vetoed")
	}
}

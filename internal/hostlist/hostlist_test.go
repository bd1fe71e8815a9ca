package hostlist

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicFormat(t *testing.T) {
	l, err := ParseString(`
# header comment
0.0.0.0 ads.example
127.0.0.1 tracker.example
bare.example
0.0.0.0 inline.example # with comment
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"ads.example", "tracker.example", "bare.example", "inline.example"} {
		if !l.Blocked(d) {
			t.Errorf("%s not blocked", d)
		}
	}
	if l.Blocked("clean.example") {
		t.Error("clean.example blocked")
	}
}

func TestParseCategories(t *testing.T) {
	l, err := ParseString(`
0.0.0.0 pre.example
# Category: ad
0.0.0.0 banner.example
# Category: analytics
0.0.0.0 metrics.example
# Category: social
0.0.0.0 social.example
`)
	if err != nil {
		t.Fatal(err)
	}
	check := func(d string, want Category) {
		t.Helper()
		c, ok := l.Match(d)
		if !ok || c != want {
			t.Errorf("Match(%s) = %q,%v; want %q", d, c, ok, want)
		}
	}
	check("pre.example", CategoryUnknown)
	check("banner.example", CategoryAd)
	check("metrics.example", CategoryAnalytics)
	check("social.example", CategorySocial)
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := ParseString("0.0.0.0 a.example extra.example"); err == nil {
		t.Fatal("three-field line accepted")
	}
	if _, err := ParseString("10.0.0.1 a.example"); err == nil {
		t.Fatal("non-sink address accepted")
	}
}

func TestLocalhostSkipped(t *testing.T) {
	l, err := ParseString("127.0.0.1 localhost\n0.0.0.0 real.example\n")
	if err != nil {
		t.Fatal(err)
	}
	if l.Blocked("localhost") {
		t.Fatal("localhost blocked")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestSubdomainMatch(t *testing.T) {
	l := New()
	l.Add("doubleclick.net", CategoryAd)
	for _, d := range []string{"doubleclick.net", "ad.doubleclick.net", "stats.g.doubleclick.net"} {
		if !l.AdRelated(d) {
			t.Errorf("%s not matched", d)
		}
	}
	if l.Blocked("notdoubleclick.net") {
		t.Error("suffix string matched without label boundary")
	}
}

func TestCaseAndDotInsensitive(t *testing.T) {
	l := New()
	l.Add("MiXeD.Example.", CategoryAd)
	if !l.Blocked("mixed.example") || !l.Blocked("MIXED.EXAMPLE.") {
		t.Fatal("canonicalisation failed")
	}
}

func TestAdRelatedCategories(t *testing.T) {
	if !CategoryAd.AdRelated() || !CategoryAnalytics.AdRelated() || !CategoryTracker.AdRelated() {
		t.Fatal("ad/analytics/tracker should be ad-related")
	}
	if CategorySocial.AdRelated() || CategoryUnknown.AdRelated() || CategoryMalware.AdRelated() {
		t.Fatal("social/unknown/malware should not be ad-related")
	}
}

func TestBundledList(t *testing.T) {
	l := Bundled()
	if l.Len() < 50 {
		t.Fatalf("bundled list has only %d entries", l.Len())
	}
	// Every ad domain the paper names must classify as ad-related.
	for _, d := range []string{
		"rubiconproject.com", "adnxs.com", "openx.net", "pubmatic.com",
		"bidswitch.net", "demdex.net", "appsflyersdk.com", "doubleclick.net",
		"adjust.com", "outbrain.com", "zemanta.com", "scorecardresearch.com",
		"appsflyer.com", "s-odx.oleads.com",
	} {
		if !l.AdRelated(d) {
			t.Errorf("paper domain %s not ad-related in bundled list", d)
		}
	}
	// Facebook Graph is social, not ad-related (Fig. 3 vs Fig. 5 distinction).
	c, ok := l.Match("graph.facebook.com")
	if !ok || c != CategorySocial {
		t.Errorf("graph.facebook.com = %q,%v; want social", c, ok)
	}
	// Vendor first-party domains must not match.
	for _, d := range []string{"yandex.net", "opera.com", "microsoft.com", "coccoc.com"} {
		if l.Blocked(d) {
			t.Errorf("vendor domain %s wrongly blocked", d)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	cases := map[string]string{
		"example.com":             "example.com",
		"www.example.com":         "example.com",
		"a.b.c.example.com":       "example.com",
		"example.co.uk":           "example.co.uk",
		"www.example.co.uk":       "example.co.uk",
		"shop.example.com.cn":     "example.com.cn",
		"single":                  "single",
		"sba.yandex.net":          "yandex.net",
		"api.browser.yandex.ru":   "yandex.ru",
		"stats.g.doubleclick.net": "doubleclick.net",
	}
	for host, want := range cases {
		if got := RegistrableDomain(host); got != want {
			t.Errorf("RegistrableDomain(%s) = %q, want %q", host, got, want)
		}
	}
}

// registrableDomainSpec is the label-splitting definition that
// RegistrableDomain's substring scan must reproduce.
func registrableDomainSpec(host string) string {
	h := canonical(host)
	labels := strings.Split(h, ".")
	if len(labels) <= 2 {
		return h
	}
	suffix2 := strings.Join(labels[len(labels)-2:], ".")
	if multiLabelSuffixes[suffix2] && len(labels) >= 3 {
		return strings.Join(labels[len(labels)-3:], ".")
	}
	return suffix2
}

// FuzzRegistrableDomainVsSplit holds RegistrableDomain to its
// label-splitting spec over arbitrary strings, empty labels, stray
// dots and case included.
func FuzzRegistrableDomainVsSplit(f *testing.F) {
	for _, s := range []string{
		"www.example.co.uk", "co.uk", ".co.uk", "a..co.uk", "x.y.com.cn.", " WWW.Example.COM ",
		"single", "", ".", "..", "a.b.c.example.com", "stats.g.doubleclick.net",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, host string) {
		if got, want := RegistrableDomain(host), registrableDomainSpec(host); got != want {
			t.Fatalf("RegistrableDomain(%q) = %q, want %q", host, got, want)
		}
	})
}

// TestRegistrableDomainDoesNotAllocate: a canonical host's registrable
// domain is a substring of it.
func TestRegistrableDomainDoesNotAllocate(t *testing.T) {
	hosts := []string{"single", "example.com", "api.browser.yandex.ru", "www.example.co.uk", "example.co.uk"}
	n := testing.AllocsPerRun(100, func() {
		for _, h := range hosts {
			RegistrableDomain(h)
		}
	})
	if n != 0 {
		t.Fatalf("RegistrableDomain allocates %.1f times per run", n)
	}
}

func TestThirdParty(t *testing.T) {
	if ThirdParty("www.example.com", "cdn.example.com") {
		t.Error("same registrable domain marked third-party")
	}
	if !ThirdParty("www.example.com", "doubleclick.net") {
		t.Error("distinct registrable domain not third-party")
	}
	if !SameParty("a.example.co.uk", "b.example.co.uk") {
		t.Error("same eTLD+1 under co.uk not same-party")
	}
	if SameParty("one.co.uk", "two.co.uk") {
		t.Error("different co.uk registrants same-party")
	}
}

func TestParseLargeInput(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# Category: ad\n")
	for i := 0; i < 5000; i++ {
		sb.WriteString("0.0.0.0 host")
		sb.WriteString(strings.Repeat("x", i%5))
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(".example\n")
	}
	l, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() == 0 {
		t.Fatal("nothing parsed")
	}
}

// Property: a domain added to the list is matched, and so is any subdomain
// of it built from simple labels.
func TestPropertySubdomainInclusion(t *testing.T) {
	f := func(sub uint8) bool {
		l := New()
		l.Add("base.example", CategoryAd)
		label := string(rune('a'+int(sub)%26)) + "x"
		return l.Blocked(label+".base.example") && !l.Blocked(label+".other.example")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RegistrableDomain is idempotent.
func TestPropertyRegistrableIdempotent(t *testing.T) {
	f := func(a, b, c uint8) bool {
		host := strings.Join([]string{
			string(rune('a' + a%26)), string(rune('a' + b%26)), string(rune('a' + c%26)), "example", "com",
		}, ".")
		rd := RegistrableDomain(host)
		return RegistrableDomain(rd) == rd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatch(b *testing.B) {
	l := Bundled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Match("stats.g.doubleclick.net")
	}
}

package websim

import (
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"testing/quick"

	"panoptes/internal/hostlist"
	"panoptes/internal/netsim"
	"panoptes/internal/pki"
)

func TestTrancoTopDeterministic(t *testing.T) {
	a := TrancoTop(50)
	b := TrancoTop(50)
	if len(a) != 50 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i].Domain != b[i].Domain || len(a[i].Resources) != len(b[i].Resources) {
			t.Fatalf("site %d differs between runs", i)
		}
		for j := range a[i].Resources {
			if a[i].Resources[j].URL != b[i].Resources[j].URL {
				t.Fatalf("site %d resource %d differs", i, j)
			}
		}
	}
	if a[0].Domain != "google.com" || a[0].Rank != 1 {
		t.Fatalf("head = %+v", a[0])
	}
}

func TestTrancoDomainsUnique(t *testing.T) {
	sites := TrancoTop(500)
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.Domain] {
			t.Fatalf("duplicate domain %s", s.Domain)
		}
		seen[s.Domain] = true
	}
}

func TestRankSkew(t *testing.T) {
	sites := TrancoTop(500)
	headAvg, tailAvg := 0.0, 0.0
	for _, s := range sites[:50] {
		headAvg += float64(len(s.Resources))
	}
	for _, s := range sites[450:] {
		tailAvg += float64(len(s.Resources))
	}
	headAvg /= 50
	tailAvg /= 50
	if headAvg <= tailAvg {
		t.Fatalf("no rank skew: head %.1f tail %.1f", headAvg, tailAvg)
	}
}

func TestCurlieSensitiveCategories(t *testing.T) {
	sites := CurlieSensitive(100)
	if len(sites) != 100 {
		t.Fatalf("len = %d", len(sites))
	}
	counts := map[Category]int{}
	seen := map[string]bool{}
	for _, s := range sites {
		if !s.Category.Sensitive() {
			t.Fatalf("non-sensitive category %q", s.Category)
		}
		counts[s.Category]++
		if seen[s.Domain] {
			t.Fatalf("duplicate sensitive domain %s", s.Domain)
		}
		seen[s.Domain] = true
	}
	for _, c := range []Category{CategorySociety, CategoryReligion, CategorySexuality, CategoryHealth} {
		if counts[c] != 25 {
			t.Fatalf("category %s count = %d", c, counts[c])
		}
	}
}

func TestDatasetSplit(t *testing.T) {
	sites := Dataset(1000)
	if len(sites) != 1000 {
		t.Fatalf("len = %d", len(sites))
	}
	sensitive := 0
	for _, s := range sites {
		if s.Category.Sensitive() {
			sensitive++
		}
	}
	if sensitive != 500 {
		t.Fatalf("sensitive = %d", sensitive)
	}
}

func TestSiteHasThirdPartyAdEmbeds(t *testing.T) {
	list := hostlist.Bundled()
	sites := TrancoTop(200)
	withAds := 0
	for _, s := range sites {
		for _, r := range s.Resources {
			if r.ThirdParty && strings.HasPrefix(r.URL, "https://") {
				host := strings.SplitN(strings.TrimPrefix(r.URL, "https://"), "/", 2)[0]
				if list.AdRelated(host) {
					withAds++
					break
				}
			}
		}
	}
	if withAds < 100 {
		t.Fatalf("only %d/200 sites embed ad domains", withAds)
	}
}

func TestHTMLContainsResources(t *testing.T) {
	s := TrancoTop(1)[0]
	doc := s.HTML()
	if !strings.Contains(doc, "<!DOCTYPE html>") {
		t.Fatal("not an HTML document")
	}
	for _, r := range s.Resources {
		if !strings.Contains(doc, r.URL) {
			t.Fatalf("resource %s missing from document", r.URL)
		}
	}
	if len(doc) < s.DocSize {
		t.Fatalf("doc %d bytes, modelled %d", len(doc), s.DocSize)
	}
}

func TestSensitiveMetaTag(t *testing.T) {
	s := CurlieSensitive(4)[3] // health
	if s.Category != CategoryHealth {
		t.Fatalf("category = %s", s.Category)
	}
	if !strings.Contains(s.HTML(), `content="health"`) {
		t.Fatal("category meta tag missing")
	}
}

func TestWriteList(t *testing.T) {
	sites := TrancoTop(3)
	list := WriteList(sites)
	lines := strings.Split(strings.TrimSpace(list), "\n")
	if len(lines) != 3 || lines[0] != "google.com" {
		t.Fatalf("list = %q", list)
	}
}

func TestLoadTimeRange(t *testing.T) {
	for _, s := range Dataset(300) {
		if s.LoadTimeMs < 100 || s.LoadTimeMs > 60000 {
			t.Fatalf("%s load time %d ms out of range", s.Domain, s.LoadTimeMs)
		}
	}
}

func TestHostingServesSitesAndEmbeds(t *testing.T) {
	inet := netsim.New()
	ca, err := pki.NewCA("Public Web Root", nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := TrancoTop(5)
	h, err := Host(inet, ca, sites)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return inet.Dial(ctx, addr)
		},
		TLSClientConfig: &tls.Config{RootCAs: ca.Pool()},
	}}

	// Landing page.
	resp, err := client.Get(sites[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), sites[0].Domain) {
		t.Fatalf("landing page: %d %q...", resp.StatusCode, string(body[:60]))
	}
	if h.Hits(sites[0].Domain) != 1 {
		t.Fatalf("hits = %d", h.Hits(sites[0].Domain))
	}

	// A first-party resource.
	var fp *Resource
	for i := range sites[0].Resources {
		if !sites[0].Resources[i].ThirdParty {
			fp = &sites[0].Resources[i]
			break
		}
	}
	if fp == nil {
		t.Fatal("no first-party resource")
	}
	resp, err = client.Get(fp.URL)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(data) != fp.Size {
		t.Fatalf("resource: status %d size %d want %d", resp.StatusCode, len(data), fp.Size)
	}

	// A third-party embed host.
	resp, err = client.Get("https://doubleclick.net/tag/js/gpt.js?site=x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("embed status = %d", resp.StatusCode)
	}

	// Favicon fallback and 404.
	resp, _ = client.Get(sites[0].URL() + "favicon.ico")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("favicon status = %d", resp.StatusCode)
	}
	resp, _ = client.Get(sites[0].URL() + "no/such/path")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("missing path status = %d", resp.StatusCode)
	}
}

func TestFiller(t *testing.T) {
	if filler(0) != nil {
		t.Fatal("filler(0) not nil")
	}
	for _, n := range []int{1, 43, 10000, len(fillerBlock), len(fillerBlock) + 3} {
		got := filler(n)
		if want := strings.Repeat("panoptes", n/8+1)[:n]; string(got) != want {
			t.Fatalf("filler(%d) is not the first %d bytes of the repeated pattern", n, n)
		}
		if n <= len(fillerBlock) && cap(got) != n {
			t.Fatalf("filler(%d) has cap %d: an append could write into the shared block", n, cap(got))
		}
	}
}

func TestEmbedHostsCovered(t *testing.T) {
	hosts := EmbedHosts()
	set := map[string]bool{}
	for _, h := range hosts {
		if set[h] {
			t.Fatalf("duplicate embed host %s", h)
		}
		set[h] = true
	}
	for _, must := range []string{"doubleclick.net", "adjust.com", "appsflyersdk.com", "scorecardresearch.com", "outbrain.com", "zemanta.com"} {
		if !set[must] {
			t.Fatalf("embed host %s missing", must)
		}
	}
}

// Property: site models are pure functions of their domain — any two
// calls agree on every field the harness depends on.
func TestPropertySiteDeterminism(t *testing.T) {
	f := func(n uint16) bool {
		i := int(n) % 400
		a := TrancoTop(i + 1)[i]
		b := TrancoTop(i + 1)[i]
		if a.Domain != b.Domain || a.DocSize != b.DocSize || a.LoadTimeMs != b.LoadTimeMs {
			return false
		}
		if len(a.Resources) != len(b.Resources) {
			return false
		}
		for j := range a.Resources {
			if a.Resources[j] != b.Resources[j] {
				return false
			}
		}
		return a.HTML() == b.HTML()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated resource URL is absolute HTTPS and parses.
func TestPropertyResourceURLsValid(t *testing.T) {
	f := func(n uint16) bool {
		i := int(n) % 200
		s := Dataset(200)[i]
		for _, r := range s.Resources {
			u, err := url.Parse(r.URL)
			if err != nil || u.Scheme != "https" || u.Host == "" {
				return false
			}
			if r.Size <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Package websim generates and hosts the simulated Web the crawls visit:
// a Tranco-style ranked list of popular sites plus a Curlie-style
// directory of sensitive-category sites (Society, Religion, Sexuality,
// Health — the categories the paper selects in §3). Every site is a
// deterministic function of its domain: a seeded generator fixes its
// resource tree (first-party scripts/styles/images plus third-party ad,
// analytics and CDN embeds), so repeated crawls see identical pages.
//
// The paper crawled the live top-500 Tranco sites and 500 Curlie sites;
// this generator is the substitution (DESIGN.md): what the measurement
// pipeline needs from the Web is realistic per-visit request trees, which
// seeded models provide reproducibly.
package websim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Category is a site's content category.
type Category string

// Categories. General covers the Tranco list; the other four mirror the
// paper's Curlie selection.
const (
	CategoryGeneral   Category = "general"
	CategorySociety   Category = "society"
	CategoryReligion  Category = "religion"
	CategorySexuality Category = "sexuality"
	CategoryHealth    Category = "health"
)

// Sensitive reports whether the category is one the paper treats as
// sensitive.
func (c Category) Sensitive() bool { return c != CategoryGeneral && c != "" }

// ResourceKind classifies a sub-resource.
type ResourceKind string

// Resource kinds.
const (
	KindScript ResourceKind = "script"
	KindStyle  ResourceKind = "style"
	KindImage  ResourceKind = "image"
	KindFont   ResourceKind = "font"
	KindXHR    ResourceKind = "xhr"
)

// Resource is one sub-resource a page references.
type Resource struct {
	URL        string
	Kind       ResourceKind
	Size       int // response body bytes the server will produce
	ThirdParty bool
}

// Site is one crawlable website model.
type Site struct {
	Domain    string
	Rank      int // 1-based popularity rank; 0 for Curlie sites
	Category  Category
	Country   string
	Resources []Resource
	// DocSize is the byte size of the landing-page HTML body.
	DocSize int
	// LoadTimeMs is the simulated time from navigation to
	// DOMContentLoaded.
	LoadTimeMs int64
}

// URL returns the landing page URL (the paper crawls landing pages only).
func (s *Site) URL() string { return "https://" + s.Domain + "/" }

// Third-party embed pools. The ad/analytics/tracker names are the real
// domains the paper reports; hostlist.Bundled classifies them.
var (
	adPool = []string{
		"doubleclick.net", "rubiconproject.com", "adnxs.com", "openx.net",
		"pubmatic.com", "bidswitch.net", "criteo.com", "taboola.com",
		"outbrain.com", "zemanta.com", "casalemedia.com", "smartadserver.com",
	}
	analyticsPool = []string{
		"google-analytics.com", "googletagmanager.com", "demdex.net",
		"scorecardresearch.com", "hotjar.com", "quantserve.com",
		"chartbeat.com", "newrelic.com",
	}
	cdnPool = []string{
		"cdn.jsdelivr.net", "cdnjs.cloudflare.com", "fonts.gstatic.com",
		"ajax.googleapis.com", "unpkg.com", "static.cloudfront.net",
	}
	// extraAdHosts are ad/analytics hosts that only native browser
	// traffic targets but that still need web hosting.
	extraAdHosts = []string{
		"adjust.com", "appsflyer.com", "appsflyersdk.com", "mixpanel.com",
		"bluekai.com", "id5-sync.com", "mathtag.com",
	}
)

// EmbedHosts returns every third-party domain the generated web can
// reference, for hosting setup.
func EmbedHosts() []string {
	var out []string
	out = append(out, adPool...)
	out = append(out, analyticsPool...)
	out = append(out, cdnPool...)
	out = append(out, extraAdHosts...)
	return out
}

// Top-site names: the head of the list uses recognisable domains so that
// leak reports read like the paper's examples; the tail is generated.
var headDomains = []string{
	"google.com", "youtube.com", "facebook.com", "twitter.com",
	"instagram.com", "wikipedia.org", "amazon.com", "reddit.com",
	"netflix.com", "tiktok.com", "yahoo.com", "bing.com", "ebay.com",
	"linkedin.com", "pinterest.com", "wordpress.com", "github.com",
	"stackoverflow.com", "bbc.co.uk", "cnn.com", "nytimes.com",
	"espn.com", "imdb.com", "spotify.com", "twitch.tv", "paypal.com",
	"microsoft.com", "apple.com", "adobe.com", "booking.com",
}

var siteWords = []string{
	"news", "shop", "play", "media", "cloud", "daily", "tech", "travel",
	"sport", "game", "music", "video", "photo", "food", "auto", "home",
	"market", "world", "life", "city",
}

var siteTLDs = []string{".com", ".net", ".org", ".io", ".co", ".info", ".com", ".com"}

var siteCountries = []string{"US", "US", "US", "DE", "FR", "GB", "NL", "JP", "BR", "IN"}

// sensitiveNames generates per-category domain vocabularies.
var sensitiveVocab = map[Category][]string{
	CategorySociety:   {"warfare-watch", "conflict-report", "refugee-aid", "protest-news", "civilrights-forum", "antiwar-coalition"},
	CategoryReligion:  {"faith-community", "scripture-study", "interfaith-dialog", "pilgrimage-guide", "parish-news", "dharma-center"},
	CategorySexuality: {"lgbtq-support", "pride-community", "sexual-health-info", "queer-voices", "rainbow-youth", "identity-forum"},
	CategoryHealth:    {"mentalhealth-support", "depression-help", "cancer-care", "hiv-resources", "addiction-recovery", "therapy-finder"},
}

func seedFor(domain string) int64 {
	h := fnv.New64a()
	h.Write([]byte(domain))
	return int64(h.Sum64())
}

// TrancoTop returns the top n ranked general sites.
func TrancoTop(n int) []*Site {
	sites := make([]*Site, 0, n)
	for i := 0; i < n; i++ {
		var domain string
		if i < len(headDomains) {
			domain = headDomains[i]
		} else {
			rng := rand.New(rand.NewSource(int64(i) * 7919))
			domain = fmt.Sprintf("%s%s%d%s",
				siteWords[rng.Intn(len(siteWords))],
				siteWords[rng.Intn(len(siteWords))],
				i, siteTLDs[rng.Intn(len(siteTLDs))])
		}
		s := buildSite(domain, i+1, CategoryGeneral)
		sites = append(sites, s)
	}
	return sites
}

// CurlieSensitive returns n sensitive-category sites, cycling through the
// four categories.
func CurlieSensitive(n int) []*Site {
	order := []Category{CategorySociety, CategoryReligion, CategorySexuality, CategoryHealth}
	sites := make([]*Site, 0, n)
	for i := 0; i < n; i++ {
		cat := order[i%len(order)]
		vocab := sensitiveVocab[cat]
		base := vocab[(i/len(order))%len(vocab)]
		domain := base + ".org"
		if i/len(order) >= len(vocab) {
			domain = fmt.Sprintf("%s-%d.org", base, i/len(order)/len(vocab))
		}
		sites = append(sites, buildSite(domain, 0, cat))
	}
	return sites
}

// Dataset builds the paper's 1000-site crawl list: half Tranco, half
// Curlie (or a scaled-down version preserving the split).
func Dataset(total int) []*Site {
	half := total / 2
	sites := TrancoTop(total - half)
	sites = append(sites, CurlieSensitive(half)...)
	return sites
}

// buildSite derives the full deterministic model for a domain.
func buildSite(domain string, rank int, cat Category) *Site {
	rng := rand.New(rand.NewSource(seedFor(domain)))
	s := &Site{
		Domain:   domain,
		Rank:     rank,
		Category: cat,
		Country:  siteCountries[rng.Intn(len(siteCountries))],
	}

	// Popular sites are heavier: rank 1 ~ 55 resources, tail ~ 12.
	base := 12
	if rank > 0 {
		weight := 43 * 500 / (rank + 500) // 43→14 across ranks
		base = 12 + weight
	} else {
		base = 10 + rng.Intn(12) // sensitive sites are lighter
	}
	nRes := base + rng.Intn(9) - 4
	if nRes < 4 {
		nRes = 4
	}

	// Proportions: ~55% first-party, ~20% CDN, ~15% ad, ~10% analytics.
	for i := 0; i < nRes; i++ {
		r := Resource{Size: 800 + rng.Intn(60*1024)}
		roll := rng.Intn(100)
		switch {
		case roll < 55:
			kind := []ResourceKind{KindScript, KindStyle, KindImage, KindImage, KindXHR}[rng.Intn(5)]
			r.Kind = kind
			r.URL = fmt.Sprintf("https://%s/%s/%d%s", domain, pathFor(kind), i, extFor(kind))
		case roll < 75:
			host := cdnPool[rng.Intn(len(cdnPool))]
			kind := []ResourceKind{KindScript, KindStyle, KindFont}[rng.Intn(3)]
			r.Kind, r.ThirdParty = kind, true
			r.URL = fmt.Sprintf("https://%s/lib/%s/%d%s", host, domain, i, extFor(kind))
		case roll < 90:
			host := adPool[rng.Intn(len(adPool))]
			r.Kind, r.ThirdParty = KindScript, true
			r.URL = fmt.Sprintf("https://%s/tag/js/gpt.js?site=%s&slot=%d", host, domain, i)
			r.Size = 300 + rng.Intn(8*1024)
		default:
			host := analyticsPool[rng.Intn(len(analyticsPool))]
			r.Kind, r.ThirdParty = KindXHR, true
			r.URL = fmt.Sprintf("https://%s/collect?tid=UA-%d&dl=https%%3A%%2F%%2F%s%%2F", host, rng.Intn(99999), domain)
			r.Size = 35 + rng.Intn(300)
		}
		s.Resources = append(s.Resources, r)
	}
	s.DocSize = 4*1024 + rng.Intn(90*1024)
	s.LoadTimeMs = int64(350 + rng.Intn(2600))
	return s
}

func pathFor(k ResourceKind) string {
	switch k {
	case KindScript:
		return "static/js"
	case KindStyle:
		return "static/css"
	case KindImage:
		return "images"
	case KindFont:
		return "fonts"
	default:
		return "api"
	}
}

func extFor(k ResourceKind) string {
	switch k {
	case KindScript:
		return ".js"
	case KindStyle:
		return ".css"
	case KindImage:
		return ".png"
	case KindFont:
		return ".woff2"
	default:
		return ""
	}
}

// HTML renders the landing page document with real tags the engine
// parses. Injected snippets (UC International's obfuscated JavaScript,
// §3.2) are appended by the engine at render time, not here.
func (s *Site) HTML() string {
	var sb strings.Builder
	sb.Grow(s.DocSize + len("<!---->\n</body>\n</html>\n"))
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", s.Domain)
	if s.Category.Sensitive() {
		fmt.Fprintf(&sb, "<meta name=\"category\" content=\"%s\">\n", s.Category)
	}
	for _, r := range s.Resources {
		switch r.Kind {
		case KindStyle:
			fmt.Fprintf(&sb, "<link rel=\"stylesheet\" href=\"%s\">\n", r.URL)
		case KindScript:
			fmt.Fprintf(&sb, "<script src=\"%s\"></script>\n", r.URL)
		case KindFont:
			fmt.Fprintf(&sb, "<link rel=\"preload\" as=\"font\" href=\"%s\">\n", r.URL)
		}
	}
	sb.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", s.Domain)
	for _, r := range s.Resources {
		switch r.Kind {
		case KindImage:
			fmt.Fprintf(&sb, "<img src=\"%s\" alt=\"\">\n", r.URL)
		case KindXHR:
			fmt.Fprintf(&sb, "<script>fetch(\"%s\")</script>\n", r.URL)
		}
	}
	// Pad the document to its modelled size.
	pad := s.DocSize - sb.Len()
	if pad > 0 {
		sb.WriteString("<!--")
		for ; pad > len(docPad); pad -= len(docPad) {
			sb.WriteString(docPad)
		}
		sb.WriteString(docPad[:pad])
		sb.WriteString("-->")
	}
	sb.WriteString("\n</body>\n</html>\n")
	return sb.String()
}

// docPad is the run of padding HTML copies from.
var docPad = strings.Repeat("p", 4<<10)

// WriteList renders the crawl list in the "1k.txt" one-domain-per-line
// format the authors published.
func WriteList(sites []*Site) string {
	var sb strings.Builder
	for _, s := range sites {
		sb.WriteString(s.Domain)
		sb.WriteByte('\n')
	}
	return sb.String()
}

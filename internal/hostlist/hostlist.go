// Package hostlist classifies domains against a Steven-Black-style hosts
// list, as the paper does for Figure 3 ("third party and ad related"
// native-request destinations). It parses the standard hosts-file format
// (`0.0.0.0 domain # comment`), supports category sections, performs
// subdomain-inclusive matching, and provides an eTLD+1-lite registrable-
// domain function for third-party determination.
package hostlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Category labels a blocked domain's reason, mirroring the section
// structure of aggregate hosts lists.
type Category string

// Categories found in aggregated ad/tracker hosts lists.
const (
	CategoryAd        Category = "ad"
	CategoryAnalytics Category = "analytics"
	CategoryTracker   Category = "tracker"
	CategorySocial    Category = "social"
	CategoryMalware   Category = "malware"
	CategoryUnknown   Category = "unknown"
)

// AdRelated reports whether the category counts as "ad or analytics
// related" for Figure 3's definition.
func (c Category) AdRelated() bool {
	switch c {
	case CategoryAd, CategoryAnalytics, CategoryTracker:
		return true
	}
	return false
}

// List is a compiled hosts list.
type List struct {
	mu    sync.RWMutex
	exact map[string]Category // fqdn -> category
}

// New returns an empty list.
func New() *List {
	return &List{exact: make(map[string]Category)}
}

// Add inserts a domain with a category.
func (l *List) Add(domain string, c Category) {
	d := canonical(domain)
	if d == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.exact[d] = c
}

// Len returns the number of entries.
func (l *List) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.exact)
}

// Parse reads hosts-file syntax. Category sections are introduced by
// comment markers of the form `# Category: ad` and apply until the next
// marker; entries before any marker get CategoryUnknown.
func Parse(r io.Reader) (*List, error) {
	l := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	current := CategoryUnknown
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if v, ok := strings.CutPrefix(rest, "Category:"); ok {
				current = Category(strings.ToLower(strings.TrimSpace(v)))
			}
			continue
		}
		// Strip trailing comment.
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		fields := strings.Fields(line)
		var domain string
		switch len(fields) {
		case 1:
			domain = fields[0] // bare-domain list variant
		case 2:
			if fields[0] != "0.0.0.0" && fields[0] != "127.0.0.1" {
				return nil, fmt.Errorf("hostlist: line %d: unexpected sink address %q", lineNo, fields[0])
			}
			domain = fields[1]
		default:
			return nil, fmt.Errorf("hostlist: line %d: malformed entry %q", lineNo, line)
		}
		if domain == "localhost" || domain == "localhost.localdomain" || domain == "broadcasthost" {
			continue
		}
		l.Add(domain, current)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hostlist: scan: %w", err)
	}
	return l, nil
}

// ParseString parses hosts-file syntax from a string.
func ParseString(s string) (*List, error) {
	return Parse(strings.NewReader(s))
}

// Match returns the category of domain, walking up the label chain so
// that a list entry for tracker.example also matches cdn.tracker.example.
func (l *List) Match(domain string) (Category, bool) {
	d := canonical(domain)
	l.mu.RLock()
	defer l.mu.RUnlock()
	for d != "" {
		if c, ok := l.exact[d]; ok {
			return c, true
		}
		i := strings.IndexByte(d, '.')
		if i < 0 {
			break
		}
		d = d[i+1:]
	}
	return "", false
}

// Blocked reports whether domain (or a parent) appears in the list.
func (l *List) Blocked(domain string) bool {
	_, ok := l.Match(domain)
	return ok
}

// AdRelated reports whether domain matches an ad/analytics/tracker entry.
func (l *List) AdRelated(domain string) bool {
	c, ok := l.Match(domain)
	return ok && c.AdRelated()
}

// Domains returns all entries sorted, mainly for tests and tooling.
func (l *List) Domains() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.exact))
	for d := range l.exact {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func canonical(domain string) string {
	d := strings.ToLower(strings.TrimSpace(domain))
	d = strings.TrimSuffix(d, ".")
	return d
}

// multiLabelSuffixes is a compact public-suffix subset: suffixes under
// which registrable domains have three labels. Enough for the simulated
// web plus the real-world TLD patterns appearing in the paper.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.cn": true, "net.cn": true, "org.cn": true,
	"com.br": true, "com.tr": true, "com.vn": true,
	"co.kr": true, "co.in": true, "co.za": true,
}

// RegistrableDomain returns the eTLD+1 of a host: the unit the paper uses
// to decide whether a native request's destination is third-party with
// respect to the visited site (and to count "distinct domains" in Fig. 3).
// It is the canonical host's substring after its second-to-last dot, or
// after its third-to-last under a multi-label suffix, so a host already
// in canonical form costs no allocation.
func RegistrableDomain(host string) string {
	h := canonical(host)
	i := strings.LastIndexByte(h, '.')
	if i < 0 {
		return h
	}
	j := strings.LastIndexByte(h[:i], '.')
	if j < 0 {
		return h
	}
	if multiLabelSuffixes[h[j+1:]] {
		j = strings.LastIndexByte(h[:j], '.') // -1 keeps all of h
	}
	return h[j+1:]
}

// SameParty reports whether two hosts share a registrable domain.
func SameParty(a, b string) bool {
	return RegistrableDomain(a) == RegistrableDomain(b)
}

// ThirdParty reports whether requestHost is third-party relative to
// siteHost.
func ThirdParty(siteHost, requestHost string) bool {
	return !SameParty(siteHost, requestHost)
}

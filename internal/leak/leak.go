// Package leak detects browsing-history exfiltration in native traffic
// (paper §3.2): it searches every natively generated request for the
// visited URL or hostname under the encodings vendors actually use —
// plaintext, percent-escaping, standard and URL-safe Base64, hex, and
// MD5/SHA-1/SHA-256 digests — and distinguishes full-path leaks (the
// remote server learns the exact content) from domain-only leaks (the
// server learns which site). It also detects persistent identifiers
// accompanying the leaks.
package leak

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"

	"panoptes/internal/bytepool"
	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
	"panoptes/internal/match"
)

// Kind classifies what was leaked.
type Kind string

// Leak kinds. FullURL implies the destination learned path and query;
// DomainOnly means just the visited hostname.
const (
	KindFullURL    Kind = "full-url"
	KindDomainOnly Kind = "domain-only"
)

// Encoding names how the leaked value was transported.
type Encoding string

// Encodings the detector searches.
const (
	EncPlain     Encoding = "plain"
	EncEscaped   Encoding = "percent-escaped"
	EncBase64    Encoding = "base64"
	EncBase64URL Encoding = "base64url"
	EncHex       Encoding = "hex"
	EncMD5       Encoding = "md5"
	EncSHA1      Encoding = "sha1"
	EncSHA256    Encoding = "sha256"
)

// EncodingSet selects which encodings to search (the ablation bench
// compares plain-only against the full set).
type EncodingSet map[Encoding]bool

// AllEncodings returns the full set.
func AllEncodings() EncodingSet {
	return EncodingSet{
		EncPlain: true, EncEscaped: true, EncBase64: true, EncBase64URL: true,
		EncHex: true, EncMD5: true, EncSHA1: true, EncSHA256: true,
	}
}

// PlainOnly returns the plain-text-only set.
func PlainOnly() EncodingSet { return EncodingSet{EncPlain: true} }

// Finding is one detected history leak.
type Finding struct {
	Browser   string
	Host      string // destination that received the leak
	Kind      Kind
	Encoding  Encoding
	VisitURL  string
	Incognito bool
	FlowID    int64
}

// representations precomputes the searchable forms of a value.
func representations(value string, encs EncodingSet) map[Encoding][]string {
	out := make(map[Encoding][]string, len(encs))
	if encs[EncPlain] {
		out[EncPlain] = []string{value}
	}
	if encs[EncEscaped] {
		if esc := url.QueryEscape(value); esc != value {
			out[EncEscaped] = []string{esc}
		}
	}
	if encs[EncBase64] {
		out[EncBase64] = []string{
			base64.StdEncoding.EncodeToString([]byte(value)),
			base64.RawStdEncoding.EncodeToString([]byte(value)),
		}
	}
	if encs[EncBase64URL] {
		out[EncBase64URL] = []string{
			base64.URLEncoding.EncodeToString([]byte(value)),
			base64.RawURLEncoding.EncodeToString([]byte(value)),
		}
	}
	if encs[EncHex] {
		out[EncHex] = []string{hex.EncodeToString([]byte(value))}
	}
	if encs[EncMD5] {
		s := md5.Sum([]byte(value))
		out[EncMD5] = []string{hex.EncodeToString(s[:])}
	}
	if encs[EncSHA1] {
		s := sha1.Sum([]byte(value))
		out[EncSHA1] = []string{hex.EncodeToString(s[:])}
	}
	if encs[EncSHA256] {
		s := sha256.Sum256([]byte(value))
		out[EncSHA256] = []string{hex.EncodeToString(s[:])}
	}
	return out
}

// haystackPool recycles the per-flow search buffers. Two classes cover
// the population: most native flows are a short path + query, the rest
// carry a body capped at capture.MaxBodyCapture plus query expansion.
var haystackPool = bytepool.New("leak_haystack", 4<<10, 64<<10)

// writeHaystack renders the searchable text of a flow — path, query
// (raw and unescaped) and body, newline-separated — into a reusable
// buffer. The unescaped query is appended only when unescaping actually
// changed it: needles never contain '\n' (url.Parse rejects control
// characters and every non-plain representation uses a newline-free
// alphabet), so a match inside a duplicate segment would already match
// the raw segment, and skipping the copy cannot change findings.
func writeHaystack(buf *bytes.Buffer, f *capture.Flow) {
	buf.WriteString(f.Path)
	buf.WriteByte('\n')
	buf.WriteString(f.RawQuery)
	buf.WriteByte('\n')
	if unescaped, err := url.QueryUnescape(f.RawQuery); err == nil && unescaped != f.RawQuery {
		buf.WriteString(unescaped)
		buf.WriteByte('\n')
	}
	buf.Write(f.Body)
	// DoH bodies carry the queried names as length-prefixed DNS labels —
	// invisible to substring search until decoded. Appending the dotted
	// qnames makes a visited hostname inside a DoH query body a
	// domain-only leak like any other.
	if IsDoHFlow(f) {
		if m, err := dnsmsg.Unpack(f.Body); err == nil {
			for _, q := range m.Questions {
				buf.WriteByte('\n')
				buf.WriteString(q.Name)
			}
		}
	}
}

// IsDoHFlow reports whether the flow is an RFC 8484 DoH exchange, by the
// proxy's transport tag or by media type (checkpoints written before the
// transport field existed carry only the header).
func IsDoHFlow(f *capture.Flow) bool {
	return f.Transport == capture.TransportDoH ||
		f.HeaderGet("Content-Type") == "application/dns-message"
}

// dohResolvers are the public resolvers of the paper's §3.2 DoH split.
var dohResolvers = map[string]bool{
	"cloudflare-dns.com": true,
	"dns.google":         true,
}

// encodingOrder is the deterministic search order: plain first,
// digests last, so the cheapest positive encoding wins ties.
var encodingOrder = []Encoding{EncPlain, EncEscaped, EncBase64, EncBase64URL, EncHex, EncMD5, EncSHA1, EncSHA256}

// maxPatterns bounds one visit's pattern list: representations yields
// at most ten forms of a value, and a visit searches two values (its
// URL and its hostname).
const maxPatterns = 2 * 10

// needle is one searched value's patterns in encodingOrder: indices
// into its visit's automaton, so the first matched index names the
// encoding the original first-Contains-wins loop would have picked.
type needle struct {
	pids []int
	encs []Encoding
}

// match resolves a scanned flow against the needle: the first matched
// pattern in priority order names the winning encoding.
func (n *needle) match(hit []bool) (Encoding, bool) {
	for i, id := range n.pids {
		if hit[id] {
			return n.encs[i], true
		}
	}
	return "", false
}

// visitNeedles caches everything derivable from one VisitURL: the
// hostname, the needles for the full URL and (when the host has at
// least two labels) the bare domain, and the automaton over both
// needles' patterns. ac is nil when the URL does not parse or the
// encoding set yields no pattern.
type visitNeedles struct {
	host string
	full needle
	dom  needle
	ac   *match.Automaton
}

// Detector holds what its StreamScanners share: the encoding set and
// one compiled visit per distinct VisitURL. A flow is only ever
// searched for its own visit's URL and hostname, so each visit gets a
// small automaton of its own, compiled once on its first flow; the scan
// cost does not grow with the number of visits seen.
type Detector struct {
	Encodings EncodingSet

	mu     sync.Mutex
	visits map[string]*visitNeedles
}

// NewDetector builds a detector with the full encoding set.
func NewDetector() *Detector { return &Detector{Encodings: AllEncodings()} }

// visitFor returns the cached per-visit scan inputs. On first sight of
// a VisitURL it parses it and compiles its automaton outside the lock,
// so one visit's compile never stalls another visit's scan; if two
// goroutines race, the first to store wins.
func (d *Detector) visitFor(visitURL string) *visitNeedles {
	d.mu.Lock()
	v, ok := d.visits[visitURL]
	d.mu.Unlock()
	if ok {
		return v
	}
	v = &visitNeedles{}
	if vu, err := url.Parse(visitURL); err == nil {
		v.host = vu.Hostname()
		var pats []string
		needleFor := func(value string) (n needle) {
			reps := representations(value, d.Encodings)
			for _, enc := range encodingOrder {
				for _, rep := range reps[enc] {
					id := slices.Index(pats, rep)
					if id < 0 {
						id = len(pats)
						pats = append(pats, rep)
					}
					n.pids = append(n.pids, id)
					n.encs = append(n.encs, enc)
				}
			}
			return n
		}
		v.full = needleFor(visitURL)
		// Domain-only detection requires a host of at least two labels
		// to avoid noise, mirroring the original Contains(".") gate.
		if strings.Contains(v.host, ".") {
			v.dom = needleFor(v.host)
		}
		if len(pats) > 0 {
			v.ac = match.Compile(pats)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.visits[visitURL]; ok {
		return prev
	}
	if d.visits == nil {
		d.visits = make(map[string]*visitNeedles)
	}
	d.visits[visitURL] = v
	return v
}

// sortFindings puts findings in their canonical order: stable, human-
// scannable, and independent of which goroutine surfaced them or when.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Browser != b.Browser {
			return a.Browser < b.Browser
		}
		if a.VisitURL != b.VisitURL {
			return a.VisitURL < b.VisitURL
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Encoding != b.Encoding {
			return a.Encoding < b.Encoding
		}
		return a.FlowID < b.FlowID
	})
}

// Summary aggregates findings per browser.
type Summary struct {
	Browser        string
	FullURLHosts   []string // destinations receiving full URLs
	DomainHosts    []string // destinations receiving visited domains
	FullURLCount   int
	DomainCount    int
	IncognitoLeaks int
}

// Summarise groups findings by browser, sorted by name.
func Summarise(findings []Finding) []Summary {
	byBrowser := map[string]*Summary{}
	hostSets := map[string]map[Kind]map[string]bool{}
	for _, f := range findings {
		s, ok := byBrowser[f.Browser]
		if !ok {
			s = &Summary{Browser: f.Browser}
			byBrowser[f.Browser] = s
			hostSets[f.Browser] = map[Kind]map[string]bool{
				KindFullURL: {}, KindDomainOnly: {},
			}
		}
		hostSets[f.Browser][f.Kind][f.Host] = true
		switch f.Kind {
		case KindFullURL:
			s.FullURLCount++
		case KindDomainOnly:
			s.DomainCount++
		}
		if f.Incognito {
			s.IncognitoLeaks++
		}
	}
	var out []Summary
	for name, s := range byBrowser {
		for h := range hostSets[name][KindFullURL] {
			s.FullURLHosts = append(s.FullURLHosts, h)
		}
		for h := range hostSets[name][KindDomainOnly] {
			s.DomainHosts = append(s.DomainHosts, h)
		}
		sort.Strings(s.FullURLHosts)
		sort.Strings(s.DomainHosts)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Browser < out[j].Browser })
	return out
}

// IDHit is one identifier-looking key/value pair mined from a flow.
type IDHit struct {
	Key   string
	Value string
}

// ExtractIDs mines a single flow for candidate persistent identifiers
// (long hex/uuid-like values): query parameters first (sorted by key
// for determinism), then JSON body fields in document order. It is the
// per-flow step of the trackable-ID analyzer.
func ExtractIDs(f *capture.Flow) []IDHit {
	var out []IDHit
	if vals, err := url.ParseQuery(f.RawQuery); err == nil {
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !looksLikeIDKey(k) {
				continue
			}
			for _, v := range vals[k] {
				if looksLikeID(v) {
					out = append(out, IDHit{Key: k, Value: v})
				}
			}
		}
	}
	// Body fields are "key":"value" pairs (idFieldPat in the tests is the
	// spec). Every match opens at a quote and neither character class
	// admits one, so each quote starts at most one match: one pass over
	// the quotes yields the regexp's leftmost, non-overlapping matches.
	body := f.Body
	for i := bytes.IndexByte(body, '"'); i >= 0; i = bytes.IndexByte(body, '"') {
		key, val, n := idField(body[i:])
		if n == 0 {
			body = body[i+1:]
			continue
		}
		if k, v := string(key), string(val); looksLikeIDKey(k) && looksLikeID(v) {
			out = append(out, IDHit{Key: k, Value: v})
		}
		body = body[i+n:]
	}
	return out
}

// idField matches `"key"\s*:\s*"value"` at the start of b, with key a
// run of [A-Za-z0-9_.-] and value 16 or more of [0-9a-fA-F-]. It
// returns the key, the value and the match length, or n == 0.
func idField(b []byte) (key, val []byte, n int) {
	k := skip(b, 1, isKeyByte)
	if k == 1 || k == len(b) || b[k] != '"' {
		return nil, nil, 0
	}
	i := skip(b, k+1, isSpace)
	if i == len(b) || b[i] != ':' {
		return nil, nil, 0
	}
	i = skip(b, i+1, isSpace)
	if i == len(b) || b[i] != '"' {
		return nil, nil, 0
	}
	v := skip(b, i+1, isIDByte)
	if v-(i+1) < 16 || v == len(b) || b[v] != '"' {
		return nil, nil, 0
	}
	return b[1:k], b[i+1 : v], v + 1
}

// skip returns the end of the run of class bytes that starts at i.
func skip(b []byte, i int, class func(byte) bool) int {
	for i < len(b) && class(b[i]) {
		i++
	}
	return i
}

func isKeyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-'
}

func isIDByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == '-'
}

// isSpace is RE2's \s: [\t\n\f\r ].
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func looksLikeIDKey(k string) bool {
	lk := strings.ToLower(k)
	for _, pat := range []string{"uuid", "guid", "deviceid", "device_id", "clientid", "client_id", "installid", "operaid", "uid"} {
		if strings.Contains(lk, pat) {
			return true
		}
	}
	return false
}

func looksLikeID(v string) bool {
	if len(v) < 16 {
		return false
	}
	for _, c := range v {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == '-') {
			return false
		}
	}
	return true
}

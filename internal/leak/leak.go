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

// needle is the interned, engine-resident form of one searched value:
// its pattern IDs in the shared automaton, ordered by encodingOrder, so
// the first ID a scan reports maps to the same encoding the old
// first-Contains-wins loop would have picked.
type needle struct {
	pids []int
	encs []Encoding
}

// match resolves a scanned flow against the needle: the first matched
// pattern ID in priority order names the winning encoding.
func (n *needle) match(ms *match.MatchSet) (Encoding, bool) {
	for i, id := range n.pids {
		if ms.Has(id) {
			return n.encs[i], true
		}
	}
	return "", false
}

// visitNeedles caches everything derivable from one VisitURL: the
// parse outcome, the hostname, and the interned needles for the full
// URL and (when the host has at least two labels) the bare domain.
type visitNeedles struct {
	ok   bool
	host string
	full *needle
	dom  *needle
}

// Detector finds history leaks in a native-flow store. Beyond the
// encoding-set knob it owns the shared match engine: every value ever
// searched (visit URLs and hostnames under all their encodings) is
// interned once into a single Aho-Corasick pattern set, so scanning a
// flow is one automaton pass regardless of how many visits are active.
type Detector struct {
	Encodings EncodingSet

	once    sync.Once
	pats    *match.PatternSet
	mu      sync.Mutex
	needles map[string]*needle
	visits  map[string]*visitNeedles
}

// NewDetector builds a detector with the full encoding set.
func NewDetector() *Detector { return &Detector{Encodings: AllEncodings()} }

// engine lazily initialises the interning state so struct-literal
// detectors (common in tests and call sites that only set Encodings)
// keep working.
func (d *Detector) engine() *match.PatternSet {
	d.once.Do(func() {
		d.pats = match.NewPatternSet("leak")
		d.needles = make(map[string]*needle)
		d.visits = make(map[string]*visitNeedles)
	})
	return d.pats
}

// needleFor interns the searchable representations of a value — the
// digest and Base64 computation that used to run per scanner now runs
// once per distinct value per detector.
func (d *Detector) needleFor(value string) *needle {
	d.engine()
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.needles[value]; ok {
		return n
	}
	reps := representations(value, d.Encodings)
	n := &needle{}
	for _, enc := range encodingOrder {
		for _, rep := range reps[enc] {
			if id := d.pats.Add(rep); id >= 0 {
				n.pids = append(n.pids, id)
				n.encs = append(n.encs, enc)
			}
		}
	}
	d.needles[value] = n
	return n
}

// visitFor returns the cached per-visit scan inputs, parsing and
// interning on first sight of a VisitURL.
func (d *Detector) visitFor(visitURL string) *visitNeedles {
	d.engine()
	d.mu.Lock()
	v, ok := d.visits[visitURL]
	d.mu.Unlock()
	if ok {
		return v
	}
	v = &visitNeedles{}
	if vu, err := url.Parse(visitURL); err == nil {
		v.ok = true
		v.host = vu.Hostname()
		v.full = d.needleFor(visitURL)
		// Domain-only detection requires a host of at least two labels
		// to avoid noise, mirroring the original Contains(".") gate.
		if strings.Contains(v.host, ".") {
			v.dom = d.needleFor(v.host)
		}
	}
	d.mu.Lock()
	if prev, ok := d.visits[visitURL]; ok {
		v = prev
	} else {
		d.visits[visitURL] = v
	}
	d.mu.Unlock()
	return v
}

// Scan inspects every flow that occurred during a visit and reports
// leaks of that visit's URL or host to any destination other than the
// visited site itself.
//
// Scan is the batch drive mode of the incremental StreamScanner: it
// replays the store's flows through a fresh scanner and finalizes, so
// batch and streaming results come from one code path. Findings are
// returned in a canonical sort order (browser, visit URL, destination,
// kind, encoding, flow ID), so the output is a pure function of the
// flow set regardless of insertion order.
func (d *Detector) Scan(native *capture.Store) []Finding {
	s := NewStreamScanner(d, "")
	flows := native.All()
	// Prime every visit's needles before the first scan so the engine
	// compiles once for the whole batch instead of once per new visit.
	for _, f := range flows {
		if f.VisitURL != "" {
			d.visitFor(f.VisitURL)
		}
	}
	for _, f := range flows {
		s.observe(f)
	}
	return s.Findings()
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
// for determinism), then JSON body fields in document order. The
// incremental trackable-ID analyzer and PersistentIDs share this as
// their per-flow step.
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

// PersistentIDs extracts candidate persistent identifiers per browser
// and host — from query parameters and from JSON request bodies
// (Opera's operaId travels in a POST body) — for the
// track-across-sessions analysis. Values keep first-seen order.
func PersistentIDs(native *capture.Store) map[string]map[string][]string {
	out := map[string]map[string][]string{}
	for _, f := range native.All() {
		for _, hit := range ExtractIDs(f) {
			if out[f.Browser] == nil {
				out[f.Browser] = map[string][]string{}
			}
			key := f.Host + "?" + hit.Key
			if !slices.Contains(out[f.Browser][key], hit.Value) {
				out[f.Browser][key] = append(out[f.Browser][key], hit.Value)
			}
		}
	}
	return out
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

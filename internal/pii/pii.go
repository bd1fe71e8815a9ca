// Package pii extracts Personally Identifying Information and
// device-specific identifiers from captured native flows, reproducing
// the paper's §3.3 methodology: keyword matching (via regular
// expressions) and value heuristics over the URL parameters and bodies
// of natively generated requests. Like the paper, it excludes the
// Android version and device model reported in the User-Agent header,
// which every vendor sends for compatibility.
//
// The result is Table 2: a browsers × attributes leak matrix.
package pii

import (
	"bytes"
	"encoding/base64"
	"net/url"
	"regexp"
	"sort"
	"strings"

	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
	"panoptes/internal/match"
)

// Attribute is one Table 2 column.
type Attribute string

// Attributes, in the paper's column order.
const (
	AttrDeviceType  Attribute = "Device Type"
	AttrDeviceManuf Attribute = "Device Manuf."
	AttrTimezone    Attribute = "Timezone"
	AttrResolution  Attribute = "Resolution"
	AttrLocalIP     Attribute = "Local IP"
	AttrDPI         Attribute = "DPI"
	AttrRooted      Attribute = "Rooted Status"
	AttrLocale      Attribute = "Locale"
	AttrCountry     Attribute = "Country"
	AttrLocation    Attribute = "Location (lat & long)"
	AttrConnType    Attribute = "Connection Type"
	AttrNetType     Attribute = "Network Type"
)

// Columns returns the attributes in presentation order.
func Columns() []Attribute {
	return []Attribute{
		AttrDeviceType, AttrDeviceManuf, AttrTimezone, AttrResolution,
		AttrLocalIP, AttrDPI, AttrRooted, AttrLocale, AttrCountry,
		AttrLocation, AttrConnType, AttrNetType,
	}
}

// detector recognises one attribute by key dictionary and/or value
// pattern. All patterns are compiled once at package init; nothing in
// the per-flow path compiles or interprets a key regexp.
type detector struct {
	attr Attribute
	// keys are the literal parameter/field names the detector claims,
	// in their canonical lowercase-with-separator spellings. They are
	// the exact finite language of keyPat.
	keys []string
	// keyPat is the anchored regexp form of keys. The scan path never
	// runs it — key dispatch goes through the package dictionary — but
	// it is kept as the specification the dictionary is tested against.
	keyPat *regexp.Regexp
	// valPat, when set, must also match the value (heuristics).
	valPat *regexp.Regexp
	// valOnly, when set, matches on value alone regardless of key.
	valOnly *regexp.Regexp
}

// joined expands the `a[_-]?b` regex idiom into its three spellings.
func joined(a, b string) []string { return []string{a + b, a + "_" + b, a + "-" + b} }

// cat concatenates key-spelling lists.
func cat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

var detectors = []detector{
	{attr: AttrDeviceType,
		keys:   cat(joined("device", "type"), []string{"devtype"}, joined("form", "factor")),
		keyPat: regexp.MustCompile(`(?i)^(device[_-]?type|devtype|form[_-]?factor)$`),
		valPat: regexp.MustCompile(`(?i)^(phone|tablet|mobile)$`)},
	{attr: AttrDeviceManuf,
		keys:   cat([]string{"manufacturer"}, joined("device", "vendor"), []string{"brand", "oem"}),
		keyPat: regexp.MustCompile(`(?i)^(manufacturer|device[_-]?vendor|brand|oem)$`)},
	{attr: AttrTimezone,
		keys:   cat([]string{"tz"}, joined("time", "zone")),
		keyPat: regexp.MustCompile(`(?i)^(tz|time[_-]?zone)$`)},
	{attr: AttrTimezone,
		valOnly: regexp.MustCompile(`^(Europe|America|Asia|Africa|Australia)/[A-Za-z_]+$`)},
	{attr: AttrResolution,
		keys:   cat([]string{"resolution"}, joined("screen", "size"), []string{"display"}),
		keyPat: regexp.MustCompile(`(?i)^(resolution|screen[_-]?size|display)$`),
		valPat: regexp.MustCompile(`^\d{3,4}[xX*]\d{3,4}$`)},
	{attr: AttrResolution,
		keys: cat([]string{"devicescreenwidth", "devicescreenheight"},
			joined("screen", "w"), joined("screen", "h"),
			joined("screen", "width"), joined("screen", "height")),
		keyPat: regexp.MustCompile(`(?i)^(deviceScreenWidth|deviceScreenHeight|screen[_-]?(w|h|width|height))$`)},
	{attr: AttrLocalIP,
		keys:   cat(joined("local", "ip"), joined("private", "ip"), joined("lan", "ip")),
		keyPat: regexp.MustCompile(`(?i)^(local[_-]?ip|private[_-]?ip|lan[_-]?ip)$`),
		valPat: regexp.MustCompile(`^(10\.|172\.(1[6-9]|2\d|3[01])\.|192\.168\.)\d{1,3}\.\d{1,3}$`)},
	{attr: AttrDPI,
		keys:   cat([]string{"dpi", "density"}, joined("screen", "density")),
		keyPat: regexp.MustCompile(`(?i)^(dpi|density|screen[_-]?density)$`),
		valPat: regexp.MustCompile(`^\d{2,3}(\.\d+)?$`)},
	{attr: AttrRooted,
		keys:   cat([]string{"rooted"}, joined("is", "rooted"), joined("root", "status"), []string{"jailbroken"}),
		keyPat: regexp.MustCompile(`(?i)^(rooted|is[_-]?rooted|root[_-]?status|jailbroken)$`),
		valPat: regexp.MustCompile(`(?i)^(true|false|0|1|yes|no)$`)},
	{attr: AttrLocale,
		keys:   cat([]string{"locale"}, joined("lang", "code"), joined("language", "code"), []string{"hl"}),
		keyPat: regexp.MustCompile(`(?i)^(locale|lang(uage)?[_-]?code|hl)$`),
		valPat: regexp.MustCompile(`^[a-zA-Z]{2}([_-][a-zA-Z]{2})?$`)},
	{attr: AttrCountry,
		keys:   cat([]string{"country"}, joined("country", "code"), []string{"cc"}, joined("geo", "country")),
		keyPat: regexp.MustCompile(`(?i)^(country([_-]?code)?|cc|geo[_-]?country)$`),
		valPat: regexp.MustCompile(`^[A-Za-z]{2}$`)},
	{attr: AttrLocation,
		keys:   []string{"lat", "latitude", "lng", "lon", "longitude"},
		keyPat: regexp.MustCompile(`(?i)^(lat(itude)?|lng|lon(gitude)?)$`),
		valPat: regexp.MustCompile(`^-?\d{1,3}\.\d+$`)},
	{attr: AttrConnType,
		keys:   cat(joined("connection", "type"), joined("conn", "type"), []string{"metered"}),
		keyPat: regexp.MustCompile(`(?i)^(connection[_-]?type|conn[_-]?type|metered)$`),
		valPat: regexp.MustCompile(`(?i)^(metered|unmetered|true|false)$`)},
	{attr: AttrNetType,
		keys:   cat(joined("network", "type"), joined("net", "type"), []string{"radio", "bearer"}),
		keyPat: regexp.MustCompile(`(?i)^(network[_-]?type|net[_-]?type|radio|bearer)$`),
		valPat: regexp.MustCompile(`(?i)^(wifi|cellular|4g|5g|lte|3g)$`)},
}

// keyDict maps a folded parameter name to the indices of the keyed
// detectors claiming it; valOnlyIdx lists the value-only detectors.
// Together they replace one anchored (?i) regexp match per detector per
// parameter with a single hash probe. Folding is ASCII, matching the
// ASCII-only key languages above.
var (
	keyDict    = match.NewDict(true)
	valOnlyIdx []int
)

func init() {
	for i, d := range detectors {
		if d.valOnly != nil {
			valOnlyIdx = append(valOnlyIdx, i)
			continue
		}
		for _, k := range d.keys {
			keyDict.Add(k, i)
		}
	}
}

// Finding is one detected leak instance.
type Finding struct {
	Attribute Attribute
	Browser   string
	Host      string // destination of the leaking request
	Key       string
	Value     string
	FlowID    int64
}

// ScanFlow inspects one flow's query parameters and body.
func ScanFlow(f *capture.Flow) []Finding {
	var out []Finding
	// A finding clones its key and value: body pairs are substrings of
	// the whole body, which the finding must not keep alive.
	record := func(i int, key, val string) {
		out = append(out, Finding{Attribute: detectors[i].attr, Browser: f.Browser,
			Host: f.Host, Key: strings.Clone(key), Value: strings.Clone(val), FlowID: f.ID})
	}
	// emit evaluates one key/value pair. Key dispatch is a single
	// dictionary probe; the candidate indices (ascending) are merged
	// with the value-only detectors so findings still come out in exact
	// detector-declaration order, byte-identical to the regexp loop this
	// replaces.
	emit := func(key, val string) {
		cands := keyDict.Lookup(key)
		ci := 0
		keyed := func(i int) {
			if d := &detectors[i]; d.valPat == nil || d.valPat.MatchString(val) {
				record(i, key, val)
			}
		}
		for _, vi := range valOnlyIdx {
			for ci < len(cands) && cands[ci] < vi {
				keyed(cands[ci])
				ci++
			}
			if detectors[vi].valOnly.MatchString(val) {
				record(vi, key, val)
			}
		}
		for ; ci < len(cands); ci++ {
			keyed(cands[ci])
		}
	}
	forEachPair(f, emit)
	return out
}

// forEachPair walks every key/value pair a flow exposes — query
// parameters (plus nested decodes), JSON-ish body fields and
// form-encoded bodies — in the scan's deterministic order, calling emit
// for each. Shared by ScanFlow and the regexp-reference test so both
// evaluate exactly the same pairs.
func forEachPair(f *capture.Flow, emit func(key, val string)) {
	// URL query parameters.
	if vals, err := url.ParseQuery(f.RawQuery); err == nil {
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, v := range vals[k] {
				emit(k, v)
				// Nested: a Base64 or %-escaped payload inside a value.
				for _, dec := range decodeNested(v) {
					forEachJSONField(dec, emit)
				}
			}
		}
	}

	// Body fields (JSON-ish). A body with a quote is copied once; its
	// pairs are substrings of the copy.
	if bytes.IndexByte(f.Body, '"') >= 0 {
		forEachJSONField(string(f.Body), emit)
	}
	// Form-encoded bodies. Keys are sorted, as for the query section,
	// so a flow's findings come out in a deterministic order.
	if strings.Contains(f.HeaderGet("Content-Type"), "x-www-form-urlencoded") {
		if vals, err := url.ParseQuery(string(f.Body)); err == nil {
			keys := make([]string, 0, len(vals))
			for k := range vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				for _, v := range vals[k] {
					emit(k, v)
				}
			}
		}
	}
	// DoH bodies: a query name's first label can smuggle an attribute as
	// "key-value" ("cc-gr.t.kiwibrowser.com" ships the device country as
	// a DNS label). Decode the packed message and walk each question.
	if f.Transport == capture.TransportDoH ||
		f.HeaderGet("Content-Type") == "application/dns-message" {
		if m, err := dnsmsg.Unpack(f.Body); err == nil {
			for _, q := range m.Questions {
				label, _, _ := strings.Cut(q.Name, ".")
				if key, val, ok := strings.Cut(label, "-"); ok {
					emit(key, val)
				}
			}
		}
	}
}

// forEachJSONField pulls "key":"value", "key":number and "key":bool
// pairs out of s without a full JSON parse (the paper's keyword/regex
// methodology; it also catches malformed or truncated bodies). It
// yields exactly the leftmost, non-overlapping matches of
//
//	"([A-Za-z0-9_.-]+)"\s*:\s*("([^"]*)"|-?\d+(\.\d+)?|true|false)
//
// (the tests hold this regexp as the spec), a string value without
// its quotes. Every match opens at a quote, so one pass over the quotes
// finds them all: a quote that starts no match is skipped, and the
// scan resumes after each match.
func forEachJSONField(s string, emit func(key, val string)) {
	for i := strings.IndexByte(s, '"'); i >= 0; i = strings.IndexByte(s, '"') {
		key, val, n := jsonField(s[i:])
		if n == 0 {
			s = s[i+1:]
			continue
		}
		emit(key, val)
		s = s[i+n:]
	}
}

// jsonField matches one field at the start of s, which opens with a
// quote. It returns the key, the value and the match length, or n == 0.
// No class in the pattern admits the byte that ends its run, so each
// run is maximal and the match needs no backtracking.
func jsonField(s string) (key, val string, n int) {
	k := skip(s, 1, isKeyByte)
	if k == 1 || k == len(s) || s[k] != '"' {
		return "", "", 0
	}
	i := skip(s, k+1, isSpace)
	if i == len(s) || s[i] != ':' {
		return "", "", 0
	}
	i = skip(s, i+1, isSpace)
	if i == len(s) {
		return "", "", 0
	}
	key, v := s[1:k], s[i:]
	switch {
	case v[0] == '"':
		if j := strings.IndexByte(v[1:], '"'); j >= 0 {
			return key, v[1 : 1+j], i + j + 2
		}
	case v[0] == '-' || isDigit(v[0]):
		sign := 0
		if v[0] == '-' {
			sign = 1
		}
		d := skip(v, sign, isDigit)
		if d == sign {
			return "", "", 0
		}
		if d+1 < len(v) && v[d] == '.' && isDigit(v[d+1]) {
			d = skip(v, d+1, isDigit)
		}
		return key, v[:d], i + d
	case strings.HasPrefix(v, "true"):
		return key, v[:4], i + 4
	case strings.HasPrefix(v, "false"):
		return key, v[:5], i + 5
	}
	return "", "", 0
}

// skip returns the end of the run of class bytes that starts at i.
func skip(s string, i int, class func(byte) bool) int {
	for i < len(s) && class(s[i]) {
		i++
	}
	return i
}

func isKeyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c) || c == '_' || c == '.' || c == '-'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isSpace is RE2's \s: [\t\n\f\r ].
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// decodeNested tries %-unescape and Base64 on a value, returning any
// plausible plaintext expansions.
func decodeNested(v string) []string {
	var out []string
	if u, err := url.QueryUnescape(v); err == nil && u != v {
		out = append(out, u)
	}
	for _, enc := range []*base64.Encoding{base64.StdEncoding, base64.URLEncoding, base64.RawStdEncoding, base64.RawURLEncoding} {
		if len(v) >= 8 {
			if d, err := enc.DecodeString(v); err == nil && printable(d) {
				out = append(out, string(d))
				break
			}
		}
	}
	return out
}

func printable(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if c < 0x09 || (c > 0x0D && c < 0x20) || c > 0x7E {
			return false
		}
	}
	return true
}

// Matrix is Table 2: browser → attribute → leaked.
type Matrix map[string]map[Attribute]bool

// Leaked reports a cell of the matrix.
func (m Matrix) Leaked(browser string, a Attribute) bool {
	row, ok := m[browser]
	return ok && row[a]
}

// Count returns how many attributes a browser leaks.
func (m Matrix) Count(browser string) int {
	n := 0
	for _, v := range m[browser] {
		if v {
			n++
		}
	}
	return n
}

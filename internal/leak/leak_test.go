package leak

import (
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/url"
	"reflect"
	"regexp"
	"testing"
	"testing/quick"

	"panoptes/internal/capture"
)

const visit = "https://mentalhealth-support.org/"

func nativeFlow(browser, host, query, body string) *capture.Flow {
	return &capture.Flow{
		ID: capture.NextFlowID(), Browser: browser, Host: host,
		Method: "GET", Scheme: "https", Path: "/report", RawQuery: query,
		Body: []byte(body), VisitURL: visit,
	}
}

func TestDetectPlainFullURL(t *testing.T) {
	s := capture.NewStore()
	s.Add(nativeFlow("QQ", "wup.browser.qq.com", "", `{"url":"`+visit+`"}`))
	fs := NewDetector().Scan(s)
	if len(fs) != 1 || fs[0].Kind != KindFullURL || fs[0].Encoding != EncPlain {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestDetectBase64FullURL(t *testing.T) {
	s := capture.NewStore()
	b64 := base64.StdEncoding.EncodeToString([]byte(visit))
	s.Add(nativeFlow("Yandex", "sba.yandex.net", "url="+url.QueryEscape(b64), ""))
	fs := NewDetector().Scan(s)
	if len(fs) != 1 || fs[0].Kind != KindFullURL || fs[0].Encoding != EncBase64 {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestDetectEscapedFullURL(t *testing.T) {
	s := capture.NewStore()
	s.Add(nativeFlow("UC International", "gjapi.ucweb.com", "u="+url.QueryEscape(visit), ""))
	fs := NewDetector().Scan(s)
	if len(fs) != 1 || fs[0].Kind != KindFullURL {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestDetectDomainOnly(t *testing.T) {
	s := capture.NewStore()
	s.Add(nativeFlow("Edge", "api.bing.com", "q=mentalhealth-support.org&mkt=en-GR", ""))
	fs := NewDetector().Scan(s)
	if len(fs) != 1 || fs[0].Kind != KindDomainOnly {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestDetectHashedHost(t *testing.T) {
	s := capture.NewStore()
	sum := sha256.Sum256([]byte("mentalhealth-support.org"))
	s.Add(nativeFlow("Hasher", "telemetry.example", "h="+hex.EncodeToString(sum[:]), ""))
	fs := NewDetector().Scan(s)
	if len(fs) != 1 || fs[0].Encoding != EncSHA256 {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestNoLeakNoFinding(t *testing.T) {
	s := capture.NewStore()
	s.Add(nativeFlow("Brave", "variations.brave.com", "seed=42", `{"ok":true}`))
	if fs := NewDetector().Scan(s); len(fs) != 0 {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestVisitedSiteItselfIgnored(t *testing.T) {
	s := capture.NewStore()
	// Request TO the visited host trivially "contains" its URL; not a leak.
	f := nativeFlow("Any", "mentalhealth-support.org", "page="+url.QueryEscape(visit), "")
	s.Add(f)
	if fs := NewDetector().Scan(s); len(fs) != 0 {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestFlowsOutsideVisitIgnored(t *testing.T) {
	s := capture.NewStore()
	f := nativeFlow("Opera", "news.opera-api.com", "u="+url.QueryEscape(visit), "")
	f.VisitURL = "" // idle flow
	s.Add(f)
	if fs := NewDetector().Scan(s); len(fs) != 0 {
		t.Fatalf("idle flow produced findings: %+v", fs)
	}
}

func TestPlainOnlyMissesBase64(t *testing.T) {
	s := capture.NewStore()
	b64 := base64.StdEncoding.EncodeToString([]byte(visit))
	s.Add(nativeFlow("Yandex", "sba.yandex.net", "url="+b64, ""))
	d := &Detector{Encodings: PlainOnly()}
	if fs := d.Scan(s); len(fs) != 0 {
		t.Fatalf("plain-only detector found %+v", fs)
	}
	if fs := NewDetector().Scan(s); len(fs) != 1 {
		t.Fatalf("full detector found %d", len(fs))
	}
}

func TestIncognitoPropagates(t *testing.T) {
	s := capture.NewStore()
	f := nativeFlow("Edge", "api.bing.com", "q=mentalhealth-support.org", "")
	f.Incognito = true
	s.Add(f)
	fs := NewDetector().Scan(s)
	if len(fs) != 1 || !fs[0].Incognito {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestSummarise(t *testing.T) {
	findings := []Finding{
		{Browser: "Yandex", Host: "sba.yandex.net", Kind: KindFullURL},
		{Browser: "Yandex", Host: "sba.yandex.net", Kind: KindFullURL},
		{Browser: "Yandex", Host: "api.browser.yandex.ru", Kind: KindDomainOnly},
		{Browser: "Edge", Host: "api.bing.com", Kind: KindDomainOnly, Incognito: true},
	}
	sums := Summarise(findings)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Browser != "Edge" || sums[1].Browser != "Yandex" {
		t.Fatalf("order = %v, %v", sums[0].Browser, sums[1].Browser)
	}
	y := sums[1]
	if y.FullURLCount != 2 || y.DomainCount != 1 ||
		len(y.FullURLHosts) != 1 || y.FullURLHosts[0] != "sba.yandex.net" {
		t.Fatalf("yandex summary = %+v", y)
	}
	if sums[0].IncognitoLeaks != 1 {
		t.Fatalf("edge incognito = %d", sums[0].IncognitoLeaks)
	}
}

func TestPersistentIDs(t *testing.T) {
	s := capture.NewStore()
	id1 := "a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f90"
	id2 := "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
	add := func(uuid string) {
		s.Add(&capture.Flow{
			ID: capture.NextFlowID(), Browser: "Yandex", Host: "api.browser.yandex.ru",
			RawQuery: "host=x.example&uuid=" + uuid,
		})
	}
	add(id1)
	add(id1)
	add(id2) // after a factory reset
	ids := PersistentIDs(s)
	vals := ids["Yandex"]["api.browser.yandex.ru?uuid"]
	if len(vals) != 2 {
		t.Fatalf("distinct ids = %v", vals)
	}
	// Short or non-hex values are not IDs.
	s2 := capture.NewStore()
	s2.Add(&capture.Flow{Browser: "X", Host: "h", RawQuery: "uuid=short&clientid=not-hex-at-all!!"})
	if got := PersistentIDs(s2); len(got) != 0 {
		t.Fatalf("bad ids accepted: %v", got)
	}
}

func TestEncodingSets(t *testing.T) {
	all := AllEncodings()
	if len(all) != 8 {
		t.Fatalf("encodings = %d", len(all))
	}
	if len(PlainOnly()) != 1 {
		t.Fatal("plain-only wrong")
	}
}

func BenchmarkScanStore(b *testing.B) {
	s := capture.NewStore()
	for i := 0; i < 200; i++ {
		s.Add(nativeFlow("Yandex", "sba.yandex.net",
			"url="+base64.StdEncoding.EncodeToString([]byte(visit)), ""))
	}
	d := NewDetector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Scan(s)
	}
}

func TestPersistentIDsInJSONBody(t *testing.T) {
	s := capture.NewStore()
	id := "3929d87cfa02a9437044a54d3c0e7e6d0d088c6a96b7429e91c093eb5efb4fa2"
	for i := 0; i < 3; i++ {
		s.Add(&capture.Flow{
			ID: capture.NextFlowID(), Browser: "Opera", Host: "s-odx.oleads.com",
			Method: "POST",
			Body:   []byte(`{"channelId":"adx","operaId":"` + id + `","adCount":2}`),
		})
	}
	ids := PersistentIDs(s)
	vals := ids["Opera"]["s-odx.oleads.com?operaId"]
	if len(vals) != 1 || vals[0] != id {
		t.Fatalf("operaId not mined from body: %v", ids)
	}
}

// idFieldPat is the spec of ExtractIDs' body scan: "key":"value" pairs
// in JSON-ish bodies, found leftmost first and without overlap.
var idFieldPat = regexp.MustCompile(`"([A-Za-z0-9_.-]+)"\s*:\s*"([0-9a-fA-F-]{16,})"`)

// extractBodyIDsSpec is ExtractIDs' body half over idFieldPat.
func extractBodyIDsSpec(body []byte) []IDHit {
	var out []IDHit
	for _, m := range idFieldPat.FindAllSubmatch(body, -1) {
		if looksLikeIDKey(string(m[1])) && looksLikeID(string(m[2])) {
			out = append(out, IDHit{Key: string(m[1]), Value: string(m[2])})
		}
	}
	return out
}

func TestExtractIDsMatchesRegexpSpec(t *testing.T) {
	id := "3929d87cfa02a9437044a54d3c0e7e6d"
	for _, body := range []string{
		`{"channelId":"adx","operaId":"` + id + `","adCount":2}`,
		`{"uuid" : "` + id + `", "device_id":"` + id + `"}`,
		`"uuid"\t:\n"` + id + `"`,
		`"uuid":"` + id[:15] + `"`,            // value too short
		`"uuid":"` + id + `x"`,                // value leaves the class
		`"uuid":"` + id,                       // unterminated value
		`""uuid":"` + id + `"`,                // empty key, then a match
		`"a"uid":"` + id + `"`,                // a failed start inside a key
		`"uid":"` + id + `"uid":"` + id + `"`, // the closing quote is no new start
		`"clientid"` + "\v" + `:"` + id + `"`, // \v is not \s
		"\xc3\"uuid\":\"" + id + "\"",         // invalid UTF-8 before the quote
		``,
		`no quotes here`,
	} {
		got := ExtractIDs(&capture.Flow{Body: []byte(body)})
		if want := extractBodyIDsSpec([]byte(body)); !reflect.DeepEqual(got, want) {
			t.Errorf("ExtractIDs(%q) = %v, want %v", body, got, want)
		}
	}
}

// FuzzExtractIDsVsRegexp holds the single-pass body scan to idFieldPat
// over arbitrary bytes.
func FuzzExtractIDsVsRegexp(f *testing.F) {
	id := "3929d87cfa02a9437044a54d3c0e7e6d"
	f.Add([]byte(`{"channelId":"adx","operaId":"` + id + `","adCount":2}`))
	f.Add([]byte(`{"uuid" : "` + id + `", "device_id":"` + id + `"}`))
	f.Add([]byte(`""uid":"` + id + `"uid":"` + id + `"`))
	f.Add([]byte("\"installid\"\r\f:\t\"" + id + "-\"\xff\"guid\":\"" + id + "\""))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		got := ExtractIDs(&capture.Flow{Body: body})
		if want := extractBodyIDsSpec(body); !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractIDs(%q) = %v, want %v", body, got, want)
		}
	})
}

// Property: for every encoding in the full set, a value transported
// under that encoding is detected, and the reported encoding matches
// (modulo plain-subsumption for escapable URLs).
func TestPropertyEncodingsAllDetected(t *testing.T) {
	f := func(a, b uint8) bool {
		target := "https://site-" + string(rune('a'+a%26)) + string(rune('a'+b%26)) + ".example/page?q=1"
		encode := map[Encoding]func(string) string{
			EncPlain:     func(s string) string { return s },
			EncEscaped:   url.QueryEscape,
			EncBase64:    func(s string) string { return base64.StdEncoding.EncodeToString([]byte(s)) },
			EncBase64URL: func(s string) string { return base64.URLEncoding.EncodeToString([]byte(s)) },
			EncHex:       func(s string) string { return hex.EncodeToString([]byte(s)) },
			EncMD5: func(s string) string {
				h := md5.Sum([]byte(s))
				return hex.EncodeToString(h[:])
			},
			EncSHA1: func(s string) string {
				h := sha1.Sum([]byte(s))
				return hex.EncodeToString(h[:])
			},
			EncSHA256: func(s string) string {
				h := sha256.Sum256([]byte(s))
				return hex.EncodeToString(h[:])
			},
		}
		for enc, fn := range encode {
			s := capture.NewStore()
			flow := &capture.Flow{
				ID: capture.NextFlowID(), Browser: "P", Host: "collector.example",
				Body: []byte(`{"v":"` + fn(target) + `"}`), VisitURL: target,
			}
			s.Add(flow)
			fs := NewDetector().Scan(s)
			if len(fs) != 1 || fs[0].Kind != KindFullURL {
				return false
			}
			_ = enc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random unrelated URL in the flow never triggers a finding
// for the visit.
func TestPropertyNoFalsePositives(t *testing.T) {
	f := func(n uint16) bool {
		s := capture.NewStore()
		other := fmt.Sprintf("https://unrelated-%d.example/", n)
		s.Add(&capture.Flow{
			ID: capture.NextFlowID(), Browser: "P", Host: "collector.example",
			RawQuery: "u=" + url.QueryEscape(other), VisitURL: visit,
		})
		return len(NewDetector().Scan(s)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

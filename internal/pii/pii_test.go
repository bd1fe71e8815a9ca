package pii

import (
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"panoptes/internal/capture"
)

func flowWithQuery(browser, host, query string) *capture.Flow {
	return &capture.Flow{
		ID: capture.NextFlowID(), Browser: browser, Host: host,
		Method: "GET", Scheme: "https", Path: "/device/profile", RawQuery: query,
	}
}

func flowWithBody(browser, host, body string) *capture.Flow {
	return &capture.Flow{
		ID: capture.NextFlowID(), Browser: browser, Host: host,
		Method: "POST", Scheme: "https", Path: "/api", Body: []byte(body),
	}
}

func attrs(fs []Finding) map[Attribute]bool {
	out := map[Attribute]bool{}
	for _, f := range fs {
		out[f.Attribute] = true
	}
	return out
}

func TestScanQueryParameters(t *testing.T) {
	f := flowWithQuery("Whale", "api-whale.naver.com",
		"resolution=1200x1920&localIp=192.168.1.100&rooted=false&locale=el-GR&country=GR&networkType=WIFI")
	got := attrs(ScanFlow(f))
	for _, want := range []Attribute{AttrResolution, AttrLocalIP, AttrRooted, AttrLocale, AttrCountry, AttrNetType} {
		if !got[want] {
			t.Errorf("missing %s (got %v)", want, got)
		}
	}
	if got[AttrLocation] || got[AttrDPI] {
		t.Errorf("false positives: %v", got)
	}
}

func TestScanLatLong(t *testing.T) {
	f := flowWithBody("Opera", "s-odx.oleads.com",
		`{"latitude":35.3387,"longitude":25.1442,"deviceVendor":"Samsung","deviceType":"PHONE"}`)
	got := attrs(ScanFlow(f))
	if !got[AttrLocation] {
		t.Errorf("latitude/longitude not detected: %v", got)
	}
	if !got[AttrDeviceManuf] || !got[AttrDeviceType] {
		t.Errorf("vendor/type not detected: %v", got)
	}
}

func TestScanTimezoneByValue(t *testing.T) {
	// Even with an unconventional key, an IANA zone value is recognised.
	f := flowWithQuery("Mint", "api.mintbrowser.com", "zoneinfo=Europe%2FAthens")
	if !attrs(ScanFlow(f))[AttrTimezone] {
		t.Error("IANA timezone value not detected")
	}
}

func TestScanRejectsNonLeaks(t *testing.T) {
	for _, q := range []string{
		"q=hello&page=2",
		"v=watch123",
		"country=Greece",     // not an ISO code
		"resolution=big",     // no WxH value
		"networkType=dialup", // unknown network type
	} {
		f := flowWithQuery("Chrome", "example.com", q)
		if fs := ScanFlow(f); len(fs) != 0 {
			t.Errorf("query %q produced findings %v", q, fs)
		}
	}
}

func TestScanFormBody(t *testing.T) {
	f := flowWithBody("Edge", "browser.events.data.msn.com", "connectionType=UNMETERED&tz=Europe/Athens")
	f.Headers = http.Header{"Content-Type": []string{"application/x-www-form-urlencoded"}}
	got := attrs(ScanFlow(f))
	if !got[AttrConnType] || !got[AttrTimezone] {
		t.Errorf("form body not scanned: %v", got)
	}
}

func TestScanNestedBase64(t *testing.T) {
	// A Base64-encoded JSON payload inside a query value.
	// {"dpi":224,"locale":"el-GR"} base64:
	f := flowWithQuery("Yandex", "api.browser.yandex.ru",
		"payload=eyJkcGkiOjIyNCwibG9jYWxlIjoiZWwtR1IifQ==")
	got := attrs(ScanFlow(f))
	if !got[AttrDPI] || !got[AttrLocale] {
		t.Errorf("nested base64 not decoded: %v", got)
	}
}

// TestBuildMatrix builds Table 2 with a MatrixAnalyzer over native
// flows; an engine flow carrying PII must not count.
func TestBuildMatrix(t *testing.T) {
	a := NewMatrixAnalyzer([]string{"Whale", "Chrome", "Opera"})
	engine := flowWithQuery("Chrome", "www.example", "tz=Europe/Athens")
	engine.Origin = capture.OriginEngine
	if len(ScanFlow(engine)) == 0 {
		t.Fatal("engine control flow carries no PII")
	}
	for _, f := range []*capture.Flow{
		flowWithQuery("Whale", "api-whale.naver.com", "localIp=192.168.1.100&rooted=true"),
		flowWithQuery("Chrome", "update.googleapis.com", "cup2key=7"),
		flowWithBody("Opera", "s-odx.oleads.com", `{"latitude":35.3,"longitude":25.1}`),
	} {
		f.Origin = capture.OriginNative
		a.Observe(f)
	}
	a.Observe(engine)

	m, findings := a.Matrix(), a.Findings()
	if !m.Leaked("Whale", AttrLocalIP) || !m.Leaked("Whale", AttrRooted) {
		t.Errorf("Whale row wrong: %v", m["Whale"])
	}
	if m.Count("Chrome") != 0 {
		t.Errorf("Chrome row should be clean: %v", m["Chrome"])
	}
	if !m.Leaked("Opera", AttrLocation) {
		t.Errorf("Opera location missing")
	}
	if len(findings) == 0 {
		t.Error("no findings returned")
	}
	// Unknown browser rows are simply absent.
	if m.Leaked("Ghost", AttrLocale) {
		t.Error("ghost browser leaked")
	}
}

func TestColumnsOrder(t *testing.T) {
	cols := Columns()
	if len(cols) != 12 {
		t.Fatalf("columns = %d, want 12 (Table 2)", len(cols))
	}
	if cols[0] != AttrDeviceType || cols[11] != AttrNetType {
		t.Fatalf("column order wrong: %v", cols)
	}
}

func TestUserAgentHeaderNotScanned(t *testing.T) {
	// The paper excludes UA-borne model/OS info; our scanner never looks
	// at headers at all.
	f := flowWithQuery("Chrome", "example.com", "q=1")
	f.Headers = http.Header{"User-Agent": []string{"Mozilla/5.0 (Linux; Android 11; SM-T580) resolution=1200x1920"}}
	if fs := ScanFlow(f); len(fs) != 0 {
		t.Errorf("UA header scanned: %v", fs)
	}
}

func BenchmarkScanFlow(b *testing.B) {
	f := flowWithBody("Opera", "s-odx.oleads.com",
		`{"channelId":"adx","deviceVendor":"Samsung","deviceModel":"SM-T580","deviceScreenWidth":1200,"deviceScreenHeight":1920,"latitude":35.3387,"longitude":25.1442,"languageCode":"EN","connectionType":"WIFI"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanFlow(f)
	}
}

// jsonFieldPat is the spec of forEachJSONField: "key":"value",
// "key":number and "key":bool pairs, found leftmost first and without
// overlap, a string value without its quotes.
var jsonFieldPat = regexp.MustCompile(`"([A-Za-z0-9_.-]+)"\s*:\s*("([^"]*)"|-?\d+(\.\d+)?|true|false)`)

// jsonFieldsSpec lists s's pairs by jsonFieldPat.
func jsonFieldsSpec(s string) [][2]string {
	var out [][2]string
	for _, m := range jsonFieldPat.FindAllStringSubmatch(s, -1) {
		out = append(out, [2]string{m[1], strings.Trim(m[2], `"`)})
	}
	return out
}

// jsonFields lists s's pairs by forEachJSONField.
func jsonFields(s string) [][2]string {
	var out [][2]string
	forEachJSONField(s, func(k, v string) { out = append(out, [2]string{k, v}) })
	return out
}

func TestJSONFieldsMatchRegexpSpec(t *testing.T) {
	for _, s := range []string{
		`{"latitude":35.3387,"longitude":-25.1442,"deviceVendor":"Samsung","rooted":false,"ok":true}`,
		`{"a" : "b", "c"` + "\t:\n" + `""}`,
		`"n":-`, `"n":-x`, `"n":1.`, `"n":1.5.6`, `"n":01a`, `"b":trueish`, `"b":fals`,
		`"s":"unterminated`, `"a":"b":"c"`, `""a":1`, `"a"b":2`, `"k"` + "\v" + `:1`,
		"\xc3\"k\":\"v\"", `"k":` + "\xff", `"k.v-1_x":"\n"`, `"k": `, `"k"`, ``,
	} {
		if got, want := jsonFields(s), jsonFieldsSpec(s); !reflect.DeepEqual(got, want) {
			t.Errorf("forEachJSONField(%q) = %q, want %q", s, got, want)
		}
	}
}

// FuzzJSONFieldsVsRegexp holds the one-pass field scanner to
// jsonFieldPat over arbitrary bytes.
func FuzzJSONFieldsVsRegexp(f *testing.F) {
	f.Add(`{"latitude":35.3387,"longitude":-25.1442,"deviceVendor":"Samsung","rooted":false}`)
	f.Add(`{"a" : "b", "c"` + "\t:\r\f" + `"", "n":-1.x, "t":truefalse}`)
	f.Add(`""a":"b":"c"` + "\xff\"d\":1.5.6")
	f.Add(``)
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := jsonFields(s), jsonFieldsSpec(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("forEachJSONField(%q) = %q, want %q", s, got, want)
		}
	})
}

package taint

import (
	"net/http"
	"testing"

	"panoptes/internal/capture"
)

func TestNewTokenUnique(t *testing.T) {
	a, b := NewToken(), NewToken()
	if a == b {
		t.Fatal("tokens collide")
	}
	if len(a) != 32 {
		t.Fatalf("token length = %d", len(a))
	}
}

func TestInject(t *testing.T) {
	h := http.Header{}
	Inject(h, "tok")
	if h.Get(HeaderName) != "tok" {
		t.Fatalf("header = %q", h.Get(HeaderName))
	}
}

func TestInjectCDP(t *testing.T) {
	orig := map[string]string{
		"User-Agent":       "sim",
		"Accept":           "*/*",
		"x-panoptes-taint": "stale", // must be replaced, not duplicated
	}
	entries := InjectCDP(orig, "fresh")
	var taintCount int
	var taintVal string
	names := map[string]bool{}
	for _, e := range entries {
		names[http.CanonicalHeaderKey(e.Name)] = true
		if http.CanonicalHeaderKey(e.Name) == HeaderName {
			taintCount++
			taintVal = e.Value
		}
	}
	if taintCount != 1 || taintVal != "fresh" {
		t.Fatalf("taint entries = %d val %q", taintCount, taintVal)
	}
	if !names["User-Agent"] || !names["Accept"] {
		t.Fatalf("original headers lost: %v", names)
	}
}

func TestSplitterClassification(t *testing.T) {
	db := capture.NewDB()
	vc := capture.NewVisitContext()
	vc.SetBrowser(10001, "Kiwi")
	vc.BeginVisit(10001, "https://page.example/", false)
	s := NewSplitter("tok", db, vc)

	mk := func(taintVal string) (*capture.Flow, *http.Request) {
		f := &capture.Flow{ID: capture.NextFlowID(), BrowserUID: 10001,
			Host: "dest.example", Headers: http.Header{}}
		req, _ := http.NewRequest("GET", "https://dest.example/", nil)
		if taintVal != "" {
			req.Header.Set(HeaderName, taintVal)
			f.Headers.Set(HeaderName, taintVal)
		}
		return f, req
	}

	f1, r1 := mk("tok")
	s.Request(f1, r1)
	if f1.Origin != capture.OriginEngine {
		t.Fatalf("origin = %s", f1.Origin)
	}
	if r1.Header.Get(HeaderName) != "" || f1.Headers.Get(HeaderName) != "" {
		t.Fatal("taint header not stripped")
	}
	if f1.Browser != "Kiwi" || f1.VisitURL != "https://page.example/" {
		t.Fatalf("annotation = %+v", f1)
	}

	f2, r2 := mk("")
	s.Request(f2, r2)
	if f2.Origin != capture.OriginNative {
		t.Fatalf("untainted origin = %s", f2.Origin)
	}

	f3, r3 := mk("forged")
	s.Request(f3, r3)
	if f3.Origin != capture.OriginNative || s.Mismatched() != 1 {
		t.Fatalf("forged origin = %s mismatched = %d", f3.Origin, s.Mismatched())
	}

	// Request classifies only; the finished exchange is filed by
	// Response, once, in the store its origin names.
	if db.Engine.Seen() != 0 || db.Native.Seen() != 0 {
		t.Fatalf("Request filed flows: engine=%d native=%d", db.Engine.Seen(), db.Native.Seen())
	}
	for _, f := range []*capture.Flow{f1, f2, f3} {
		s.Response(f, nil)
	}
	if db.Engine.Len() != 1 || db.Native.Len() != 2 {
		t.Fatalf("engine=%d native=%d", db.Engine.Len(), db.Native.Len())
	}
	if db.Engine.All()[0] != f1 {
		t.Fatal("the tainted flow was not filed as engine traffic")
	}
}

func TestSplitterNilVisits(t *testing.T) {
	db := capture.NewDB()
	s := NewSplitter("tok", db, nil)
	f := &capture.Flow{BrowserUID: 1}
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	s.Request(f, req) // must not panic
	if db.Native.Len() != 0 {
		t.Fatal("flow stored before its exchange finished")
	}
	s.Response(f, nil)
	if db.Native.Len() != 1 || f.Browser != "" || f.Attempt != 0 {
		t.Fatalf("native=%d flow=%+v, want one unannotated flow", db.Native.Len(), f)
	}
}

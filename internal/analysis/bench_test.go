package analysis_test

import (
	"net/http"
	"testing"

	"panoptes/internal/capture"
	"panoptes/internal/dnsmsg"
)

// benchFlows is a fixed flow mix shaped like one population visit: the
// engine's document and a sub-resource, then native phone-home traffic
// with an identifier in the query, an identifier in a JSON body, a
// telemetry beacon, a WebSocket frame and a DoH query.
func benchFlows(b *testing.B, browser string) []*capture.Flow {
	const uuid = "3929d87c-fa02-a943-7044-a54d3c0e7e6d"
	doh, err := dnsmsg.NewQuery(7, "news.example", dnsmsg.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	base := func(o capture.Origin, method, host, path string) *capture.Flow {
		return &capture.Flow{
			Browser: browser, Origin: o, Method: method, Scheme: "https",
			Host: host, Path: path, Status: http.StatusOK, Transport: capture.TransportH1,
		}
	}
	doc := base(capture.OriginEngine, "GET", "news.example", "/")
	doc.RespBytes = 26 << 10
	res := base(capture.OriginEngine, "GET", "cdn.news.example", "/app.js")
	res.RespBytes = 4 << 10
	q := base(capture.OriginNative, "GET", "api.vendor.example", "/v1/config")
	q.RawQuery = "uuid=" + uuid + "&ver=23.5"
	body := base(capture.OriginNative, "POST", "ads.vendor.example", "/report")
	body.Body = []byte(`{"channelId":"adx","operaId":"` + uuid + `","adCount":2}`)
	noise := base(capture.OriginNative, "POST", "t.vendor.example", "/beacon")
	noise.Body = []byte(`{"event":"telemetry","seq":42,"pad":"xxxxxxxxxxxxxxxx"}`)
	ws := base(capture.OriginNative, "WS", "push.vendor.example", "/push/v1/telemetry")
	ws.Scheme, ws.Transport = "wss", capture.TransportWS
	ws.Body = []byte(`{"event":"page_visit","seq":42,"url":"https://news.example/","uuid":"` + uuid + `"}`)
	dns := base(capture.OriginNative, "POST", "dns.vendor.example", "/dns-query")
	dns.Transport, dns.Body = capture.TransportDoH, doh
	return []*capture.Flow{doc, res, q, body, noise, ws, dns}
}

// BenchmarkPipelineObserve drives the whole analysis suite, registered
// on a pipeline, over a fixed flow mix: the population engine's commit
// path minus synthesis and capture. One op is one pass over the mix.
func BenchmarkPipelineObserve(b *testing.B) {
	const browser = "SynthBrowser"
	_, p := transportSuite(browser)
	flows := benchFlows(b, browser)
	for _, f := range flows { // warm the analyzers' per-key state
		p.Observe(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range flows {
			p.Observe(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/flow")
}

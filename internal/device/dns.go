package device

import (
	"net"

	"panoptes/internal/dnsmsg"
	"panoptes/internal/obs"
)

// StubResolver is the device's local DNS stub (the 127.0.0.1:53 Android
// resolver apps use by default). It answers from the virtual internet's
// authoritative registry and counts every question in
// dns_queries_total{transport="stub"}. The §3.2 analysis compares
// browsers that resolve here against browsers that ship queries to
// third-party DNS-over-HTTPS services (their lookups appear as HTTPS
// flows to dns.google / cloudflare-dns.com instead).
type StubResolver struct {
	dev *Device
}

func newStubResolver(d *Device) *StubResolver {
	return &StubResolver{dev: d}
}

// Lookup resolves name, counting the query.
func (r *StubResolver) Lookup(name string) (net.IP, error) {
	obs.Default.Counter("dns_queries_total", "transport", "stub", "type", dnsmsg.TypeA.String()).Inc()
	return r.dev.Net.LookupHost(name)
}

// Exchange answers a wire-format DNS query, for apps that speak the
// protocol to the stub rather than calling the resolver API.
func (r *StubResolver) Exchange(query []byte) ([]byte, error) {
	q, err := dnsmsg.Unpack(query)
	if err != nil {
		return nil, err
	}
	resp := dnsmsg.NewResponse(q, dnsmsg.RCodeSuccess)
	for _, question := range q.Questions {
		obs.Default.Counter("dns_queries_total", "transport", "stub", "type", question.Type.String()).Inc()
		if question.Type != dnsmsg.TypeA {
			continue
		}
		ip, err := r.dev.Net.LookupHost(question.Name)
		if err != nil {
			resp.Header.RCode = dnsmsg.RCodeNXDomain
			continue
		}
		resp.Answers = append(resp.Answers, dnsmsg.Resource{
			Name: question.Name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, A: ip,
		})
	}
	return resp.Pack()
}

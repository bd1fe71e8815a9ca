package popsim

import (
	"encoding/base64"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strings"
	"time"

	"panoptes/internal/browser"
	"panoptes/internal/device"
	"panoptes/internal/hostlist"
	"panoptes/internal/profiles"
	"panoptes/internal/websim"
)

// Model behaviour defaults. The session process is a heavy-tailed
// mixture: each user carries a lognormal activity multiplier, session
// gaps are exponential around MeanSessionGap scaled by it, visits per
// session are Pareto (most sessions are one page, a long tail reads
// many), and dwell times are lognormal around a ~8 s median — the
// standard shapes for user think-time models.
const (
	activitySigma = 1.0 // lognormal sigma of the per-user rate multiplier
	visitAlpha    = 1.9 // Pareto tail index of visits-per-session
	visitCap      = 40  // longest session, in page visits
	dwellMedianS  = 8.0 // median dwell seconds
	dwellSigma    = 1.1 // lognormal sigma of dwell
	dwellCapS     = 120.0
	dwellMinS     = 0.5
	zipfS         = 0.95 // rank exponent of site popularity
	uuidPoolSize  = 64   // distinct persistent IDs per browser
)

// resSynth is one precomputed page sub-resource: the URL parse, size
// and ad classification happen once per site, not once per visit.
type resSynth struct {
	host, path string
	size       int
	adRelated  bool
}

// siteSynth is one site's precomputed synthesis state. urlB64 and
// urlEsc are the {URL_B64} and {URL_ESC} template values; adRes counts
// the ad-related resources an ad-blocking engine skips.
type siteSynth struct {
	domain  string
	url     string
	urlB64  string
	urlEsc  string
	docSize int
	res     []resSynth
	adRes   int
}

// profileSynth is one browser profile's precomputed synthesis state.
type profileSynth struct {
	p   *profiles.Profile
	uid int
	// piiQuery is the rendered Table-2 beacon query (identical to what
	// browser.piiQuery emits for this profile on the testbed device).
	piiQuery string
	h2       map[string]bool
	dohHost  string // resolver host, "" when the profile resolves locally
	dohQname string // expanded DoHPIIQname ("" = none)
	noisePad string
	// onVisit holds p.OnVisit's query and body templates, compiled.
	onVisit []nativeSynth
	// nativeFlows is the number of native flows every visit renders
	// (the sampled-only DoH PII query aside).
	nativeFlows int
	// uuids is the bounded pool of persistent identifiers users of this
	// browser draw from. A pool (rather than one UUID per user) keeps
	// the trackable-ID miner's per-key value lists bounded no matter how
	// many users run.
	uuids []string
}

// nativeSynth is one compiled per-visit native template.
type nativeSynth struct{ query, body template }

// Model is the immutable, shareable behaviour model: samplers plus the
// precomputed per-profile and per-site synthesis tables. All methods
// are pure and safe for concurrent use.
type Model struct {
	r        rng
	profiles []*profileSynth
	weights  []float64 // cumulative market-share weights
	sites    []siteSynth
	siteCum  []float64 // cumulative Zipf weights over site rank

	meanGapS     float64 // mean session gap, seconds
	arrivalMeanS float64 // mean fresh-user inter-arrival, seconds
}

func newModel(cfg *Config) *Model {
	m := &Model{
		r:            rng{seed: mix64(uint64(cfg.Seed) ^ 0xda3e39cb94b95bdb)},
		weights:      profiles.MarketWeights(cfg.Profiles),
		meanGapS:     cfg.MeanSessionGap.Seconds(),
		arrivalMeanS: cfg.RampUp.Seconds() / float64(cfg.Population),
	}
	for i, p := range cfg.Profiles {
		m.profiles = append(m.profiles, newProfileSynth(m.r, i, p, cfg))
	}
	m.sites = make([]siteSynth, len(cfg.Sites))
	m.siteCum = make([]float64, len(cfg.Sites))
	total := 0.0
	for i, s := range cfg.Sites {
		m.sites[i] = newSiteSynth(s, cfg.Hostlist)
		// Zipf weight by list position (the dataset is already
		// popularity-ordered: Tranco rank first, Curlie after).
		w := 1 / math.Pow(float64(i+1), zipfS)
		total += w
		m.siteCum[i] = total
	}
	for i := range m.siteCum {
		m.siteCum[i] /= total
	}
	if n := len(m.siteCum); n > 0 {
		m.siteCum[n-1] = 1
	}
	return m
}

func newSiteSynth(s *websim.Site, list *hostlist.List) siteSynth {
	visit := s.URL()
	ss := siteSynth{
		domain:  s.Domain,
		url:     visit,
		urlB64:  base64.StdEncoding.EncodeToString([]byte(visit)),
		urlEsc:  url.QueryEscape(visit),
		docSize: s.DocSize,
	}
	for _, r := range s.Resources {
		u, err := url.Parse(r.URL)
		if err != nil || u.Host == "" {
			continue
		}
		path := u.Path
		if path == "" {
			path = "/"
		}
		ad := list != nil && list.AdRelated(u.Hostname())
		if ad {
			ss.adRes++
		}
		ss.res = append(ss.res, resSynth{
			host:      u.Hostname(),
			path:      path,
			size:      r.Size,
			adRelated: ad,
		})
	}
	return ss
}

func newProfileSynth(r rng, idx int, p *profiles.Profile, cfg *Config) *profileSynth {
	ps := &profileSynth{
		p:        p,
		uid:      cfg.BrowserUIDs[p.Name],
		piiQuery: buildPIIQuery(p, cfg.DeviceIP, cfg.Rooted),
		noisePad: strings.Repeat("t", p.NoiseBytes),
	}
	if len(p.H2Hosts) > 0 {
		ps.h2 = make(map[string]bool, len(p.H2Hosts))
		for _, h := range p.H2Hosts {
			ps.h2[h] = true
		}
	}
	switch p.DNS {
	case profiles.DNSDoHCloudflare:
		ps.dohHost = "cloudflare-dns.com"
	case profiles.DNSDoHGoogle:
		ps.dohHost = "dns.google"
	}
	if p.DoHPIIQname != "" {
		ps.dohQname = strings.ReplaceAll(p.DoHPIIQname, "{CC}",
			strings.ToLower(browser.TestbedCountry))
	}
	for _, t := range p.OnVisit {
		ps.onVisit = append(ps.onVisit, nativeSynth{compileTemplate(t.Query), compileTemplate(t.Body)})
	}
	ps.nativeFlows = len(p.OnVisit)
	if ps.piiQuery != "" {
		ps.nativeFlows++
	}
	if len(p.NoiseHosts) > 0 {
		ps.nativeFlows += max(p.VisitNoise, 0)
	}
	if p.WSTelemetryHost != "" {
		ps.nativeFlows++
	}
	if ps.dohHost != "" {
		ps.nativeFlows++
	}
	ps.uuids = make([]string, uuidPoolSize)
	for k := range ps.uuids {
		ps.uuids[k] = r.hexID(streamUUIDPool, uint64(idx), uint64(k), 0)
	}
	return ps
}

// buildPIIQuery renders the profile's Table-2 attribute query exactly
// as browser.piiQuery does on the testbed device, so the PII
// dictionary classifies population beacons identically to emulator
// beacons.
func buildPIIQuery(p *profiles.Profile, deviceIP string, rooted bool) string {
	if !p.PII.Any() || p.PIICarrier == "" {
		return ""
	}
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+url.QueryEscape(v)) }
	pii := p.PII
	if pii.DeviceType {
		add("deviceType", "TABLET")
	}
	if pii.DeviceManuf {
		add("manufacturer", device.Manufacturer)
	}
	if pii.Timezone {
		add("tz", browser.TestbedTimezone)
	}
	if pii.Resolution {
		add("resolution", fmt.Sprintf("%dx%d", device.ScreenWidth, device.ScreenHeight))
	}
	if pii.LocalIP {
		add("localIp", deviceIP)
	}
	if pii.DPI {
		add("dpi", fmt.Sprint(device.ScreenDPI))
	}
	if pii.Rooted {
		add("rooted", fmt.Sprint(rooted))
	}
	if pii.Locale {
		add("locale", browser.TestbedLocale)
	}
	if pii.Country {
		add("country", browser.TestbedCountry)
	}
	if pii.LatLong {
		add("latitude", browser.TestbedLat)
		add("longitude", browser.TestbedLon)
	}
	if pii.ConnType {
		add("connectionType", "UNMETERED")
	}
	if pii.NetType {
		add("networkType", "WIFI")
	}
	return strings.Join(parts, "&")
}

// --- Samplers (all pure functions of the coordinates) ---

// BrowserIdx assigns the user's browser from the market-share mix.
func (m *Model) BrowserIdx(user uint32) int {
	u := m.r.uniform(streamBrowser, uint64(user), 0, 0)
	return sort.SearchFloat64s(m.weights, u)
}

// activity is the user's lognormal rate multiplier: heavy users start
// sessions proportionally more often.
func (m *Model) activity(user uint32) float64 {
	return m.r.logNormal(0, activitySigma, streamActivity, uint64(user), 0, 0)
}

// SessionGap is the pause before the user's next session.
func (m *Model) SessionGap(user, sess uint32) time.Duration {
	mean := m.meanGapS / m.activity(user)
	s := m.r.exp(mean, streamGap, uint64(user), uint64(sess), 0)
	return time.Duration(s * float64(time.Second))
}

// SessionVisits draws the session length in page visits (Pareto tail).
func (m *Model) SessionVisits(user, sess uint32) int {
	n := int(m.r.pareto(visitAlpha, 1, streamVisits, uint64(user), uint64(sess), 0))
	if n < 1 {
		n = 1
	}
	if n > visitCap {
		n = visitCap
	}
	return n
}

// Dwell is the time spent on one page before the next visit.
func (m *Model) Dwell(user, sess, visit uint32) time.Duration {
	mu := math.Log(dwellMedianS)
	s := m.r.logNormal(mu, dwellSigma, streamDwell, uint64(user), uint64(sess), uint64(visit))
	if s > dwellCapS {
		s = dwellCapS
	}
	if s < dwellMinS {
		s = dwellMinS
	}
	return time.Duration(s * float64(time.Second))
}

// SiteIdx picks the visited site, rank-skewed (Zipf) over the dataset.
func (m *Model) SiteIdx(user, sess, visit uint32) int {
	u := m.r.uniform(streamSite, uint64(user), uint64(sess), uint64(visit))
	return sort.SearchFloat64s(m.siteCum, u)
}

// UUID is the user's persistent identifier for their browser, drawn
// from the profile's bounded pool.
func (m *Model) UUID(profileIdx int, user uint32) string {
	ps := m.profiles[profileIdx]
	k := m.r.raw(streamUUID, uint64(user), 0, 0) % uint64(len(ps.uuids))
	return ps.uuids[k]
}

// arrivalGap is the fresh-user inter-arrival time in seconds (Poisson
// arrivals with mean RampUp/Population).
func (m *Model) arrivalGap(user uint32) float64 {
	return m.r.exp(m.arrivalMeanS, streamArrival, uint64(user), 0, 0)
}

// Package capture is Panoptes' flow store: every HTTP(S) exchange the MITM
// proxy intercepts becomes a Flow, and the taint addon files it into one
// of two databases — engine traffic (requests the website caused) and
// native traffic (requests the browser app generated itself) — mirroring
// the paper's "two different local databases" (§2.3).
package capture

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/obs"
)

func init() {
	obs.Default.Help("capture_flows_total", "Flows filed into each capture database since process start.")
	obs.Default.Help("capture_store_flows", "Flows currently held by each capture database.")
	obs.Default.Help("capture_store_bytes", "Request wire bytes of the flows held by each capture database (response wire bytes are counted by mitm_bytes_total{dir=\"down\"}).")
	obs.Default.Help("capture_spilled_total", "Committed flows spilled to the JSONL sink instead of being retained in memory, per capture database.")
}

// Tap observes a store's commit stream: Observe is called once per
// committed flow, from the committing goroutine, after the flow has
// been filed (or spilled when retention is off). In a DB a flow tagged
// with a navigation attempt is committed only when DB.SealAttempt seals
// its attempt, and never if DB.RemoveAttempt quarantines it, so a tap
// sees committed history only and keeps no per-attempt state. Seal and
// Retract are after-the-fact notices with no undo duty: Seal follows
// the attempt's last Observe (a flow arriving after its attempt sealed
// gets another Seal), Retract names an attempt no tap will ever see.
// The streaming analysis pipeline (internal/pipeline) and the export
// plane (internal/sink) implement Tap.
//
// A tap may also take a committed batch (DB.CommitAll, DB.SealAttempt)
// in one call by implementing ObserveAll(fs []*Flow), which must act as
// Observe on each flow of fs in order; any other tap gets the batch as
// one Observe per flow.
//
// Batches may arrive concurrently: goroutines that commit at the same
// time (a crawl's parallel attempt seals, the population engine's
// per-visit commits) call the tap at once, and their flows interleave.
// Within one batch the flows keep their slice order.
type Tap interface {
	Observe(f *Flow)
	Retract(attempt int64)
	Seal(attempt int64)
}

// batchTap is the optional batch form of Tap.Observe. The analysis
// pipeline implements it to fold a batch analyzer by analyzer.
type batchTap interface {
	ObserveAll(fs []*Flow)
}

// observeAll hands a committed batch to t.
func observeAll(t Tap, fs []*Flow) {
	if b, ok := t.(batchTap); ok {
		b.ObserveAll(fs)
		return
	}
	for _, f := range fs {
		t.Observe(f)
	}
}

// Taps fans the commit stream out to several taps in order — the
// streaming analysis pipeline and the export plane (internal/sink)
// ride the same stream side by side.
type Taps []Tap

// Observe implements Tap.
func (ts Taps) Observe(f *Flow) {
	for _, t := range ts {
		t.Observe(f)
	}
}

// ObserveAll hands a batch to every member in order: whole, to a
// member that takes batches, and flow by flow to the rest.
func (ts Taps) ObserveAll(fs []*Flow) {
	for _, t := range ts {
		observeAll(t, fs)
	}
}

// Retract implements Tap.
func (ts Taps) Retract(attempt int64) {
	for _, t := range ts {
		t.Retract(attempt)
	}
}

// Seal implements Tap.
func (ts Taps) Seal(attempt int64) {
	for _, t := range ts {
		t.Seal(attempt)
	}
}

// Reset forwards DB.Reset's optional tap reset to every member that
// supports it (the analysis pipeline does; the export plane keeps its
// counters — an export stream has no between-experiments rewind).
func (ts Taps) Reset() {
	for _, t := range ts {
		if r, ok := t.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
}

// RetainMode selects which capture databases keep committed flows
// resident in memory. With streaming analysis on the commit tap the
// retained store is only needed for post-hoc exports (JSONL/HAR,
// checkpoints), so large campaigns can drop flows after analysis.
type RetainMode string

// Retention modes for the -retain flag.
const (
	RetainAll    RetainMode = "all"    // keep engine and native flows (default)
	RetainNative RetainMode = "native" // keep native flows, drop engine flows after the tap
	RetainNone   RetainMode = "none"   // drop all flows after the tap (spill to JSONL if a sink is set)
)

// Origin classifies who generated a request.
type Origin string

// Origins.
const (
	OriginEngine Origin = "engine" // caused by the visited website
	OriginNative Origin = "native" // generated by the browser app itself
)

// MaxBodyCapture caps stored request/response body prefixes.
const MaxBodyCapture = 8 * 1024

// Transport names the data-plane protocol a flow travelled over. The
// MITM proxy stamps it at capture time from the ALPN-negotiated dispatch
// (plus content sniffing for DoH, which rides HTTP but carries DNS
// messages), and every layer downstream — pool recycling, HAR export,
// NDJSON sink envelopes, checkpoint/resume, the per-transport coverage
// analysis — carries it unchanged.
const (
	TransportH1  = "h1"  // HTTP/1.1 keep-alive exchange
	TransportH2  = "h2"  // HTTP/2 frame-level exchange
	TransportWS  = "ws"  // one WebSocket telemetry frame (or its upgrade)
	TransportDoH = "doh" // DNS-over-HTTPS message (RFC 8484 body)
)

// Flow is one captured HTTP(S) exchange.
type Flow struct {
	ID   int64     `json:"id"`
	Time time.Time `json:"time"` // virtual time at interception

	BrowserUID int    `json:"browser_uid"`
	Browser    string `json:"browser,omitempty"` // app name, annotated from UID

	Method string `json:"method"`
	Scheme string `json:"scheme"`
	// Transport is the data-plane protocol ("h1", "h2", "ws", "doh");
	// empty on flows captured before the transport-aware dispatch (JSONL
	// round-trips, hand-built test flows), which count as "h1". ALPN is
	// the raw protocol the client negotiated on the intercepted TLS
	// connection ("" for cleartext or no-ALPN clients).
	Transport string      `json:"transport,omitempty"`
	ALPN      string      `json:"alpn,omitempty"`
	Host      string      `json:"host"`
	Path      string      `json:"path"`
	RawQuery  string      `json:"raw_query,omitempty"`
	Headers   http.Header `json:"headers,omitempty"`
	Body      []byte      `json:"body,omitempty"` // capped prefix

	Status   int `json:"status"`
	ReqBytes int `json:"req_bytes"`
	// RespBytes is the response's wire size, taken from the encoded
	// response before the flow is committed. When the write to the
	// client fails it is the planned size, not the bytes actually
	// delivered; the proxy's own error answers record 0.
	RespBytes int `json:"resp_bytes"`

	Origin    Origin `json:"origin"`
	VisitURL  string `json:"visit_url,omitempty"` // page being visited at the time
	Incognito bool   `json:"incognito,omitempty"`
	Err       string `json:"err,omitempty"`
	// Attempt tags the navigation attempt that caused the flow (0 outside
	// attempt-scoped visits). A DB parks tagged flows until the attempt
	// seals; a failed attempt's partial flows are quarantined by
	// DB.RemoveAttempt before the retry, so only committed attempts reach
	// the analyses.
	Attempt int64 `json:"attempt,omitempty"`

	// Recycling state (see pool.go). Zero for flows built by hand; only
	// AcquireFlow sets pooled, making Ref/Release meaningful.
	refs   int32
	pooled bool
}

// URL reconstructs the full request URL.
func (f *Flow) URL() string {
	u := url.URL{Scheme: f.Scheme, Host: f.Host, Path: f.Path, RawQuery: f.RawQuery}
	return u.String()
}

// HeaderGet is a nil-safe header accessor.
func (f *Flow) HeaderGet(name string) string {
	if f.Headers == nil {
		return ""
	}
	return f.Headers.Get(name)
}

// Store is an append-only flow database, safe for concurrent use: one
// RWMutex guards one slice of flows kept in insertion order. Stores
// created with NewNamedStore additionally report their size to the obs
// registry under a db=<name> label.
type Store struct {
	mu    sync.RWMutex
	flows []*Flow
	seen  atomic.Int64 // every Add ever, retained or not

	// origin, when set, is stamped onto every added flow so the commit
	// tap and downstream analyzers can classify it without knowing
	// which store it came from. Set by NewDB.
	origin Origin

	// tap, when set, observes every committed flow. Set via DB.SetTap
	// before any traffic flows (no lock: publication happens-before the
	// proxy goroutines start).
	tap Tap

	// gate, when set, is the owning DB's attempt quarantine: Add parks
	// attempt-tagged flows there until the attempt seals. Set by NewDB;
	// a standalone store commits every flow at Add.
	gate   *gate
	parked atomic.Int64 // this store's flows waiting in the gate

	// Retention machinery. When noRetain is set, committed flows are not
	// filed but spilled (if a sink is set) and dropped.
	noRetain atomic.Bool
	spillMu  sync.Mutex
	spill    *json.Encoder
	spillErr error

	// Observability series (nil for anonymous stores).
	added     *obs.Counter
	spilled   *obs.Counter
	sizeFlows *obs.Gauge
	sizeBytes *obs.Gauge
}

// NewStore returns an empty, anonymous store (no metrics).
func NewStore() *Store { return &Store{} }

// NewNamedStore returns an empty store whose flow and byte totals are
// exported as capture_* metrics labeled db=name.
func NewNamedStore(name string) *Store {
	return &Store{
		added:     obs.Default.Counter("capture_flows_total", "db", name),
		spilled:   obs.Default.Counter("capture_spilled_total", "db", name),
		sizeFlows: obs.Default.Gauge("capture_store_flows", "db", name),
		sizeBytes: obs.Default.Gauge("capture_store_bytes", "db", name),
	}
}

var flowIDs atomic.Int64

// NextFlowID allocates a process-unique flow ID.
func NextFlowID() int64 { return flowIDs.Add(1) }

// ReserveFlowIDs allocates n contiguous process-unique flow IDs and
// returns the first; the caller stamps first .. first+n-1 itself.
func ReserveFlowIDs(n int) int64 { return flowIDs.Add(int64(n)) - int64(n) + 1 }

// EnsureFlowIDsAbove fast-forwards the flow ID allocator past n, so a
// resumed campaign never re-issues an ID a checkpointed flow already
// carries (the export plane dedupes across the resume boundary by ID).
func EnsureFlowIDsAbove(n int64) {
	for {
		cur := flowIDs.Load()
		if cur >= n || flowIDs.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add stamps the store's origin onto a finished flow and commits it,
// unless the flow is attempt-tagged and the store belongs to a DB: then
// it parks in the DB's gate (counted as resident) until DB.SealAttempt
// commits it or DB.RemoveAttempt drops it. A flow arriving after its
// attempt closed follows it at once: committed, then another Seal
// notice, or dropped.
func (s *Store) Add(f *Flow) {
	s.stamp(f)
	if f.Attempt == 0 || s.gate == nil {
		s.commit(f)
		return
	}
	closed, sealed := s.gate.park(f)
	switch {
	case !closed:
		s.parked.Add(1)
		s.resize(f, 1)
	case sealed:
		s.commit(f)
		if s.tap != nil {
			s.tap.Seal(f.Attempt)
		}
	}
}

// stamp sets the store's origin on an arriving flow and counts it.
func (s *Store) stamp(f *Flow) {
	if s.origin != "" {
		f.Origin = s.origin
	}
	s.count(1)
}

// count adds n arriving flows to the store's totals.
func (s *Store) count(n int) {
	s.seen.Add(int64(n))
	if s.added != nil {
		s.added.Add(int64(n))
	}
}

// commit files one flow (retains it or, with retention off, spills it)
// and hands it to the tap.
func (s *Store) commit(f *Flow) {
	one := [1]*Flow{f}
	s.fileAll(one[:])
	if s.tap != nil {
		s.tap.Observe(f)
	}
}

// owns reports whether a committed flow belongs in this store: a DB's
// stores hold the flows stamped with their origin, an anonymous store
// every flow it is given.
func (s *Store) owns(f *Flow) bool { return s.origin == "" || f.Origin == s.origin }

// fileAll retains the flows of a committed batch that belong in this
// store or, with retention off, spills them to the spill sink, if set,
// in slice order. The lock, the spill lock and the counters are taken
// once per batch. The first encode error is kept for SpillErr.
func (s *Store) fileAll(fs []*Flow) {
	n, bytes := 0, 0
	if s.noRetain.Load() {
		s.spillMu.Lock()
		for _, f := range fs {
			if !s.owns(f) {
				continue
			}
			n++
			if s.spill == nil {
				continue
			}
			if err := s.spill.Encode(f); err != nil && s.spillErr == nil {
				s.spillErr = fmt.Errorf("capture: spill flow %d: %w", f.ID, err)
			}
		}
		s.spillMu.Unlock()
		if s.spilled != nil {
			s.spilled.Add(int64(n))
		}
		return
	}
	s.mu.Lock()
	for _, f := range fs {
		if s.owns(f) {
			f.Ref() // the store's reference, dropped by Reset
			s.flows = append(s.flows, f)
			n++
			bytes += f.ReqBytes
		}
	}
	s.mu.Unlock()
	if s.added != nil {
		s.sizeFlows.Add(float64(n))
		s.sizeBytes.Add(float64(bytes))
	}
}

// unpark takes a flow leaving the gate off this store's parked count.
func (s *Store) unpark(f *Flow) {
	s.parked.Add(-1)
	s.resize(f, -1)
}

// resize moves a named store's resident-size gauges by one flow
// (delta is +1 or -1).
func (s *Store) resize(f *Flow, delta float64) {
	if s.added != nil {
		s.sizeFlows.Add(delta)
		s.sizeBytes.Add(delta * float64(f.ReqBytes))
	}
}

// SetRetention switches the store between retaining committed flows
// (true, the default) and dropping them after the commit tap (false).
// Must be set before any traffic flows.
func (s *Store) SetRetention(retain bool) { s.noRetain.Store(!retain) }

// Retained reports whether committed flows stay resident.
func (s *Store) Retained() bool { return !s.noRetain.Load() }

// SetSpill directs dropped flows (retention off) to w as JSONL.
func (s *Store) SetSpill(w io.Writer) {
	s.spillMu.Lock()
	s.spill = json.NewEncoder(w)
	s.spillMu.Unlock()
}

// SpillErr returns the first spill encode error, if any.
func (s *Store) SpillErr() error {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	return s.spillErr
}

// Len returns the number of resident (retained) flows.
func (s *Store) Len() int { return len(s.view()) }

// Seen returns the number of flows ever committed, retained or not.
func (s *Store) Seen() int64 { return s.seen.Load() }

// Pending returns the number of attempt-tagged flows parked in the DB's
// gate while their attempt is in flight.
func (s *Store) Pending() int { return int(s.parked.Load()) }

// view returns the resident flows as of now. Commits only append and
// Reset drops the slice rather than clearing it, so the prefix a reader
// holds is never written again and can be walked without the lock.
func (s *Store) view() []*Flow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flows
}

// All returns a snapshot of the flows in insertion order.
func (s *Store) All() []*Flow {
	v := s.view()
	out := make([]*Flow, len(v))
	copy(out, v)
	return out
}

// Filter returns flows satisfying pred, in order.
func (s *Store) Filter(pred func(*Flow) bool) []*Flow {
	var out []*Flow
	for _, f := range s.All() {
		if pred(f) {
			out = append(out, f)
		}
	}
	return out
}

// ByBrowser returns flows for one browser app name.
func (s *Store) ByBrowser(name string) []*Flow {
	return s.Filter(func(f *Flow) bool { return f.Browser == name })
}

// Hosts returns the distinct destination hosts, sorted.
func (s *Store) Hosts() []string {
	set := map[string]bool{}
	for _, f := range s.view() {
		set[f.Host] = true
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums request (and optionally response) wire sizes.
func (s *Store) TotalBytes(includeResponses bool) int64 {
	var n int64
	for _, f := range s.view() {
		n += int64(f.ReqBytes)
		if includeResponses {
			n += int64(f.RespBytes)
		}
	}
	return n
}

// Reset clears the store's resident flows (a DB's parked flows are
// cleared by DB.Reset).
func (s *Store) Reset() {
	s.mu.Lock()
	flows := s.flows
	s.flows = nil
	s.mu.Unlock()
	var bytes int64
	for _, f := range flows {
		bytes += int64(f.ReqBytes)
		f.Release()
	}
	if s.added != nil {
		// The size gauges are additive across every store sharing the
		// label, so a reset subtracts this store's contribution.
		s.sizeFlows.Add(-float64(len(flows)))
		s.sizeBytes.Add(-float64(bytes))
	}
}

// WriteJSONL persists the store one JSON object per line.
func (s *Store) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, f := range s.All() {
		if err := enc.Encode(f); err != nil {
			return fmt.Errorf("capture: encode flow %d: %w", f.ID, err)
		}
	}
	return nil
}

// ReadJSONL loads flows from a JSONL stream into the store. Reloaded
// flows are committed history, so they bypass a DB's attempt gate.
func (s *Store) ReadJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var f Flow
		if err := json.Unmarshal([]byte(text), &f); err != nil {
			return fmt.Errorf("capture: line %d: %w", line, err)
		}
		s.stamp(&f)
		s.commit(&f)
	}
	return sc.Err()
}

// DB is the paired engine/native database of a campaign.
type DB struct {
	Engine *Store
	Native *Store

	tap  Tap
	gate gate
}

// gate is a DB's attempt quarantine, the only one in the measurement
// stack: the paper counts only the traffic of page visits that
// completed. Both stores park attempt-tagged flows in one buffer, so an
// attempt's flows keep their arrival order across Engine and Native
// when SealAttempt commits them.
type gate struct {
	mu      sync.Mutex
	pending map[int64][]*Flow
	// closed maps each closed attempt to whether it sealed, for flows
	// that arrive late (one entry per attempt for the DB's lifetime).
	closed map[int64]bool
}

// park parks f, with the gate's reference, while its attempt is open.
// Once the attempt has closed it leaves f alone and reports whether the
// attempt sealed.
func (g *gate) park(f *Flow) (closed, sealed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if sealed, closed = g.closed[f.Attempt]; closed {
		return closed, sealed
	}
	f.Ref() // the gate's reference, dropped once the attempt seals or is removed
	if g.pending == nil {
		g.pending = make(map[int64][]*Flow)
	}
	g.pending[f.Attempt] = append(g.pending[f.Attempt], f)
	return false, false
}

// close records whether an attempt sealed and detaches its parked flows
// in arrival order.
func (g *gate) close(attempt int64, sealed bool) []*Flow {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed == nil {
		g.closed = make(map[int64]bool)
	}
	g.closed[attempt] = sealed
	flows := g.pending[attempt]
	delete(g.pending, attempt)
	return flows
}

// NewDB creates an empty pair, exported to the obs registry as the
// db=engine and db=native capture databases. Each store stamps its
// origin onto added flows and parks attempt-tagged flows in the DB's
// gate.
func NewDB() *DB {
	db := &DB{Engine: NewNamedStore("engine"), Native: NewNamedStore("native")}
	db.Engine.origin = OriginEngine
	db.Native.origin = OriginNative
	db.Engine.gate = &db.gate
	db.Native.gate = &db.gate
	return db
}

// SetTap installs a commit tap on both stores. Must be called before
// any traffic flows (publication relies on the happens-before edge of
// starting the proxy goroutines afterwards).
func (db *DB) SetTap(t Tap) {
	db.tap = t
	db.Engine.tap = t
	db.Native.tap = t
}

// SetRetention applies a retention mode to the pair. The empty mode
// means RetainAll.
func (db *DB) SetRetention(m RetainMode) error {
	switch m {
	case "", RetainAll:
		db.Engine.SetRetention(true)
		db.Native.SetRetention(true)
	case RetainNative:
		db.Engine.SetRetention(false)
		db.Native.SetRetention(true)
	case RetainNone:
		db.Engine.SetRetention(false)
		db.Native.SetRetention(false)
	default:
		return fmt.Errorf("capture: unknown retention mode %q (want all, native or none)", m)
	}
	return nil
}

// FullyRetained reports whether both stores keep flows resident —
// required for checkpointing and post-hoc exports.
func (db *DB) FullyRetained() bool {
	return db.Engine.Retained() && db.Native.Retained()
}

// CommitAll commits a batch of untagged flows (Attempt 0) in slice
// order: each is stamped and filed (or spilled) in its origin's store,
// then the tap takes the whole batch. It is Add for every flow, with
// one tap call instead of len(fs) and each store's counters moved once;
// tagged flows must go through Add.
func (db *DB) CommitAll(fs []*Flow) {
	engine := 0
	for _, f := range fs {
		s := db.StoreFor(f.Origin)
		f.Origin = s.origin
		if s == db.Engine {
			engine++
		}
	}
	db.Engine.count(engine)
	db.Native.count(len(fs) - engine)
	db.commit(fs)
}

// commit files each flow in its origin's store, then hands the batch
// to the tap. Both batch commits, CommitAll and SealAttempt, end here.
func (db *DB) commit(fs []*Flow) {
	db.Engine.fileAll(fs)
	db.Native.fileAll(fs)
	if db.tap != nil {
		observeAll(db.tap, fs)
	}
}

// SealAttempt commits a navigation attempt: its parked flows are filed
// (or spilled) and passed to the tap in arrival order, then the tap gets
// the Seal notice. The proxy files each flow before its client has the
// response, so after a synchronous navigate only exchanges the client
// abandoned can still arrive (see Store.Add).
func (db *DB) SealAttempt(attempt int64) {
	if attempt == 0 {
		return
	}
	flows := db.gate.close(attempt, true)
	for _, f := range flows {
		db.StoreFor(f.Origin).unpark(f)
	}
	db.commit(flows)
	for _, f := range flows {
		f.Release() // the gate's reference
	}
	if db.tap != nil {
		db.tap.Seal(attempt)
	}
}

// StoreFor returns the store matching an origin.
func (db *DB) StoreFor(o Origin) *Store {
	if o == OriginEngine {
		return db.Engine
	}
	return db.Native
}

// Reset clears both stores and the gate and, if the tap supports it,
// its accumulated analysis state.
func (db *DB) Reset() {
	db.gate.mu.Lock()
	pending := db.gate.pending
	db.gate.pending = nil
	db.gate.mu.Unlock()
	for _, flows := range pending {
		db.drop(flows)
	}
	db.Engine.Reset()
	db.Native.Reset()
	if r, ok := db.tap.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// RemoveAttempt quarantines a failed navigation attempt: its parked
// flows, and any that arrive later, are dropped before any tap, store or
// spill sink sees them, and the tap gets the Retract notice. It returns
// the number of parked flows dropped.
func (db *DB) RemoveAttempt(attempt int64) int {
	if attempt == 0 {
		return 0
	}
	flows := db.gate.close(attempt, false)
	db.drop(flows)
	if db.tap != nil {
		db.tap.Retract(attempt)
	}
	return len(flows)
}

// drop releases flows taken from the gate.
func (db *DB) drop(flows []*Flow) {
	for _, f := range flows {
		db.StoreFor(f.Origin).unpark(f)
		f.Release()
	}
}

// VisitInfo is the page-visit context active for a browser while the
// proxy intercepts its traffic.
type VisitInfo struct {
	Browser   string
	URL       string
	Incognito bool
	// Attempt is the navigation-attempt tag stamped onto flows captured
	// during this visit (see Flow.Attempt); 0 when untagged.
	Attempt int64
}

// VisitContext maps browser UIDs to their current visit, letting the
// proxy addon annotate flows with the page that was open when they
// happened.
type VisitContext struct {
	mu      sync.RWMutex
	current map[int]VisitInfo
	names   map[int]string // uid -> browser app name (survives EndVisit)
}

// NewVisitContext returns an empty context.
func NewVisitContext() *VisitContext {
	return &VisitContext{current: make(map[int]VisitInfo), names: make(map[int]string)}
}

// SetBrowser registers the app name for a UID.
func (vc *VisitContext) SetBrowser(uid int, name string) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.names[uid] = name
}

// BeginVisit marks uid as currently visiting url.
func (vc *VisitContext) BeginVisit(uid int, url string, incognito bool) {
	vc.BeginVisitAttempt(uid, url, incognito, 0)
}

// BeginVisitAttempt is BeginVisit with an attempt tag: flows captured until
// EndVisit carry it, so a failed attempt's traffic can be quarantined.
func (vc *VisitContext) BeginVisitAttempt(uid int, url string, incognito bool, attempt int64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.current[uid] = VisitInfo{Browser: vc.names[uid], URL: url, Incognito: incognito, Attempt: attempt}
}

// EndVisit clears the visit.
func (vc *VisitContext) EndVisit(uid int) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	delete(vc.current, uid)
}

// Lookup returns the visit info for uid; outside a visit only the
// browser name is populated.
func (vc *VisitContext) Lookup(uid int) VisitInfo {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	if v, ok := vc.current[uid]; ok {
		return v
	}
	return VisitInfo{Browser: vc.names[uid]}
}

// Package match is Panoptes' deterministic multi-pattern matching
// engine: the single-pass core of the capture→analysis hot path. The
// leak detector's needle population grows with every active visit —
// each visit URL and hostname expands into up to ten searchable
// representations (plain, escaped, two Base64 alphabets, hex, three
// digests) — and the pre-engine scanners paid one strings.Contains
// pass per needle per flow. A PatternSet compiles the needles into an
// Aho-Corasick automaton instead, so every flow haystack is scanned in
// one pass regardless of how many patterns are registered, with
// byte-exact (case-sensitive) semantics identical to substring search.
//
// Patterns are added incrementally under a generation counter. Because
// classic Aho-Corasick cannot extend a compiled automaton, the set
// keeps two tiers: a large stable automaton rebuilt geometrically
// rarely, and a small recent automaton covering the patterns added
// since the last promotion, rebuilt cheaply whenever the generation
// moves. A scan walks both (still O(haystack) total) and reports the
// union; amortised compile cost stays near O(total pattern bytes ×
// log patterns) instead of the quadratic cost of recompiling the full
// set on every add.
//
// The package also provides Dict, an exact-match keyword dictionary
// with optional ASCII case folding, used by internal/pii to dispatch a
// parameter key to its candidate detectors in one hash probe instead
// of one anchored regexp match per detector.
package match

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/obs"
)

func init() {
	obs.Default.Help("match_automaton_rebuilds_total", "Aho-Corasick automaton compilations by pattern set and tier (stable promotions vs cheap recent-tier rebuilds).")
	obs.Default.Help("match_scan_ns", "Single-pass multi-pattern scan latency in nanoseconds, by pattern set, sampled: the first scan and every 64th after it.")
	obs.Default.Help("match_patterns", "Patterns currently registered in each pattern set.")
}

// scanBuckets span 0.25µs .. ~4ms in nanoseconds, the plausible range
// for one flow-haystack pass.
var scanBuckets = obs.ExponentialBuckets(250, 4, 8)

// timeEvery is the scan-latency sampling stride: a set times its first
// scan and every timeEvery-th after it, since a clock pair costs as
// much as a short haystack's pass.
const timeEvery = 64

// promoteAt is the recent-tier size (in patterns) that triggers a full
// stable recompilation. ~64 visits' worth of leak needles: large enough
// to amortise stable rebuilds, small enough that the recent tier stays
// a trivial compile. Variable, not const, so tests can exercise
// promotion without registering thousands of patterns.
var promoteAt = 768

// PatternSet is an incrementally growable set of byte-exact patterns,
// each identified by a dense integer ID (its registration order).
// Add, Scan and the accessors are safe for concurrent use.
type PatternSet struct {
	name string

	mu   sync.RWMutex
	ids  map[string]int
	pats []string
	gen  uint64

	compiledGen uint64
	stable      *Automaton // patterns [0, stableN)
	recent      *Automaton // patterns [stableN, len(pats)) since last promotion
	stableN     int

	pool  sync.Pool     // *MatchSet
	scans atomic.Uint64 // scans run, for latency sampling

	rebuildStable *obs.Counter
	rebuildRecent *obs.Counter
	scanNS        *obs.Histogram
	gauge         *obs.Gauge
}

// NewPatternSet returns an empty set. The name labels the set's obs
// series (match_automaton_rebuilds_total, match_scan_ns).
func NewPatternSet(name string) *PatternSet {
	ps := &PatternSet{
		name:          name,
		ids:           make(map[string]int),
		rebuildStable: obs.Default.Counter("match_automaton_rebuilds_total", "set", name, "tier", "stable"),
		rebuildRecent: obs.Default.Counter("match_automaton_rebuilds_total", "set", name, "tier", "recent"),
		scanNS:        obs.Default.Histogram("match_scan_ns", scanBuckets, "set", name),
		gauge:         obs.Default.Gauge("match_patterns", "set", name),
	}
	ps.pool.New = func() any { return &MatchSet{ps: ps} }
	return ps
}

// Add registers a pattern and returns its ID. Registering an existing
// pattern returns the original ID without bumping the generation; the
// empty pattern is rejected with -1 (it would match everywhere).
func (ps *PatternSet) Add(pattern string) int {
	if pattern == "" {
		return -1
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if id, ok := ps.ids[pattern]; ok {
		return id
	}
	id := len(ps.pats)
	ps.ids[pattern] = id
	ps.pats = append(ps.pats, pattern)
	ps.gen++
	ps.gauge.Set(float64(len(ps.pats)))
	return id
}

// Len returns the number of registered patterns.
func (ps *PatternSet) Len() int {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return len(ps.pats)
}

// Generation returns the add counter; it changes exactly when the
// pattern population does, so callers can cache derived state.
func (ps *PatternSet) Generation() uint64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return ps.gen
}

// automata returns the compiled tiers, recompiling whatever the
// generation counter says is stale: the cheap recent tier on every
// add-batch, the stable tier only when the recent tier outgrows
// promoteAt.
func (ps *PatternSet) automata() (stable, recent *Automaton) {
	ps.mu.RLock()
	if ps.compiledGen == ps.gen && (ps.stable != nil || len(ps.pats) == 0) {
		stable, recent = ps.stable, ps.recent
		ps.mu.RUnlock()
		return stable, recent
	}
	ps.mu.RUnlock()

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.compiledGen != ps.gen || (ps.stable == nil && len(ps.pats) > 0) {
		if ps.stable == nil || len(ps.pats)-ps.stableN >= promoteAt {
			ps.stable = compile(ps.pats, 0)
			ps.stableN = len(ps.pats)
			ps.recent = nil
			ps.rebuildStable.Inc()
		} else {
			ps.recent = compile(ps.pats[ps.stableN:], ps.stableN)
			ps.rebuildRecent.Inc()
		}
		ps.compiledGen = ps.gen
	}
	return ps.stable, ps.recent
}

// Scan walks the haystack once per compiled tier (at most twice in
// total, independent of pattern count) and returns the set of pattern
// IDs that occur in it as substrings. Release the result when done.
// The first scan and every timeEvery-th after it are timed.
func (ps *PatternSet) Scan(hay []byte) *MatchSet {
	if ps.scans.Add(1)%timeEvery != 1 {
		return ps.scan(hay)
	}
	start := time.Now()
	ms := ps.scan(hay)
	ps.scanNS.Observe(float64(time.Since(start).Nanoseconds()))
	return ms
}

func (ps *PatternSet) scan(hay []byte) *MatchSet {
	stable, recent := ps.automata()
	ms := ps.pool.Get().(*MatchSet)
	if stable != nil {
		stable.scanInto(hay, ms)
	}
	if recent != nil {
		recent.scanInto(hay, ms)
	}
	return ms
}

// MatchSet is the result of one Scan: constant-time membership over
// the matched pattern IDs. Not safe for concurrent use.
type MatchSet struct {
	ps   *PatternSet
	seen []bool
	hits []int
}

// Has reports whether the pattern with the given ID matched.
func (m *MatchSet) Has(id int) bool {
	return id >= 0 && id < len(m.seen) && m.seen[id]
}

// IDs returns the matched pattern IDs in first-match order. The slice
// is owned by the MatchSet and dies with Release.
func (m *MatchSet) IDs() []int { return m.hits }

// Release resets the set and returns it to its PatternSet's pool.
func (m *MatchSet) Release() {
	for _, id := range m.hits {
		m.seen[id] = false
	}
	m.hits = m.hits[:0]
	m.ps.pool.Put(m)
}

// mark records a matched global pattern ID, deduplicating repeats.
func (m *MatchSet) mark(id int) {
	if id >= len(m.seen) {
		grown := make([]bool, id+1)
		copy(grown, m.seen)
		m.seen = grown
	}
	if !m.seen[id] {
		m.seen[id] = true
		m.hits = append(m.hits, id)
	}
}

// Automaton is one compiled Aho-Corasick tier: an immutable goto/fail
// trie in CSR form, safe for concurrent scans. Pattern outputs carry
// the PatternSet's global IDs, so tiers share one MatchSet.
type Automaton struct {
	rootNext [256]int32 // dense root transitions (fail closure built in)
	lo       []int32    // per-node edge range start; len = nodes+1
	elab     []byte     // edge labels, sorted per node
	etgt     []int32    // edge targets
	fail     []int32
	out      []int32 // global pattern ID ending at node, or -1
	olink    []int32 // nearest terminal proper-suffix node, or 0
	hasOut   []bool  // out >= 0 || olink != 0
	patterns int
}

// Patterns returns how many patterns this tier covers.
func (a *Automaton) Patterns() int { return a.patterns }

// Nodes returns the trie size (diagnostics and tests).
func (a *Automaton) Nodes() int { return len(a.fail) }

// compile builds a tier over patterns, assigning output IDs
// baseID+index. Patterns are assumed deduplicated and non-empty
// (PatternSet guarantees both).
func compile(patterns []string, baseID int) *Automaton {
	type tnode struct {
		next  map[byte]int32
		fail  int32
		out   int32
		olink int32
	}
	nodes := []tnode{{out: -1}}
	for i, p := range patterns {
		s := int32(0)
		for j := 0; j < len(p); j++ {
			c := p[j]
			t, ok := nodes[s].next[c]
			if !ok {
				if nodes[s].next == nil {
					nodes[s].next = make(map[byte]int32, 1)
				}
				nodes = append(nodes, tnode{out: -1})
				t = int32(len(nodes) - 1)
				nodes[s].next[c] = t
			}
			s = t
		}
		nodes[s].out = int32(baseID + i)
	}

	// edgeKeys lists a node's edge labels in byte order. Iterating the
	// map's actual keys instead of probing all 256 byte values keeps the
	// build O(edges log fanout) — the all-bytes probe made compilation
	// the dominant cost of incremental adds.
	var ebuf []byte
	edgeKeys := func(m map[byte]int32) []byte {
		ebuf = ebuf[:0]
		for c := range m {
			ebuf = append(ebuf, c)
		}
		slices.Sort(ebuf)
		return ebuf
	}

	// BFS fail links. Children are visited in byte order for a fully
	// deterministic build (not required for correctness — fail links are
	// order-independent within a level — but it keeps the structure
	// reproducible for tests and debugging).
	queue := make([]int32, 0, len(nodes))
	for _, c := range edgeKeys(nodes[0].next) {
		queue = append(queue, nodes[0].next[c])
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		fu := nodes[u].fail
		if nodes[fu].out >= 0 {
			nodes[u].olink = fu
		} else {
			nodes[u].olink = nodes[fu].olink
		}
		for _, c := range edgeKeys(nodes[u].next) {
			v := nodes[u].next[c]
			f := nodes[u].fail
			for f != 0 {
				if t, ok := nodes[f].next[c]; ok {
					f = t
					break
				}
				f = nodes[f].fail
			}
			if f == 0 {
				if t, ok := nodes[0].next[c]; ok && t != v {
					f = t
				}
			}
			nodes[v].fail = f
			queue = append(queue, v)
		}
	}

	// Flatten to CSR.
	a := &Automaton{
		lo:       make([]int32, len(nodes)+1),
		fail:     make([]int32, len(nodes)),
		out:      make([]int32, len(nodes)),
		olink:    make([]int32, len(nodes)),
		hasOut:   make([]bool, len(nodes)),
		patterns: len(patterns),
	}
	edges := 0
	for _, n := range nodes {
		edges += len(n.next)
	}
	a.elab = make([]byte, 0, edges)
	a.etgt = make([]int32, 0, edges)
	for i := range nodes {
		n := &nodes[i]
		a.lo[i] = int32(len(a.elab))
		for _, c := range edgeKeys(n.next) {
			a.elab = append(a.elab, c)
			a.etgt = append(a.etgt, n.next[c])
		}
		a.fail[i] = n.fail
		a.out[i] = n.out
		a.olink[i] = n.olink
		a.hasOut[i] = n.out >= 0 || n.olink != 0
	}
	a.lo[len(nodes)] = int32(len(a.elab))
	for c, t := range nodes[0].next {
		a.rootNext[c] = t
	}
	return a
}

// step advances the automaton by one byte, following fail links on
// mismatch. Edge lists are sorted, so the linear probe can stop early;
// fanout beyond a handful of edges is rare outside the root, which has
// its own dense table.
func (a *Automaton) step(s int32, c byte) int32 {
	for s != 0 {
		lo, hi := a.lo[s], a.lo[s+1]
		if hi-lo > 8 {
			for lo < hi {
				mid := (lo + hi) / 2
				if a.elab[mid] < c {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < a.lo[s+1] && a.elab[lo] == c {
				return a.etgt[lo]
			}
		} else {
			for i := lo; i < hi; i++ {
				if a.elab[i] == c {
					return a.etgt[i]
				}
				if a.elab[i] > c {
					break
				}
			}
		}
		s = a.fail[s]
	}
	return a.rootNext[c]
}

// scanInto marks every pattern of this tier occurring in hay.
func (a *Automaton) scanInto(hay []byte, ms *MatchSet) {
	if a.patterns == 0 {
		return
	}
	s := int32(0)
	for i := 0; i < len(hay); i++ {
		s = a.step(s, hay[i])
		if !a.hasOut[s] {
			continue
		}
		t := s
		for t != 0 {
			if id := a.out[t]; id >= 0 {
				ms.mark(int(id))
			}
			t = a.olink[t]
		}
	}
}

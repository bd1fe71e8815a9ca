// Package match is Panoptes' deterministic multi-pattern matching
// engine. The leak detector searches each native flow for its own
// visit's URL and hostname under up to ten representations each
// (plain, escaped, two Base64 alphabets, hex, three digests); the
// pre-engine scanner paid one strings.Contains pass per representation.
// Compile builds an Aho-Corasick automaton over such a pattern list
// instead, so a haystack is scanned in one pass, with byte-exact
// (case-sensitive) semantics identical to substring search. An
// Automaton is immutable once compiled: the leak detector builds one
// per distinct visit URL and scans it from any goroutine without a
// lock.
//
// The package also provides Dict, an exact-match keyword dictionary
// with optional ASCII case folding, used by internal/pii to dispatch a
// parameter key to its candidate detectors in one hash probe instead
// of one anchored regexp match per detector.
package match

import "slices"

// Automaton is a compiled Aho-Corasick automaton: an immutable
// goto/fail trie in CSR form, safe for concurrent scans.
type Automaton struct {
	rootNext [256]int32 // dense root transitions (fail closure built in)
	lo       []int32    // per-node edge range start; len = nodes+1
	elab     []byte     // edge labels, sorted per node
	etgt     []int32    // edge targets
	fail     []int32
	out      []int32 // pattern ID ending at node, or -1
	olink    []int32 // nearest terminal proper-suffix node, or 0
	hasOut   []bool  // out >= 0 || olink != 0
}

// Compile builds the automaton over patterns; pattern i reports as ID
// i. The caller guarantees the list is non-empty and its patterns are
// non-empty and distinct.
func Compile(patterns []string) *Automaton {
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
		nodes[s].out = int32(i)
	}

	// edgeKeys lists a node's edge labels in byte order. Iterating the
	// map's actual keys instead of probing all 256 byte values keeps the
	// build O(edges log fanout).
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
		lo:     make([]int32, len(nodes)+1),
		fail:   make([]int32, len(nodes)),
		out:    make([]int32, len(nodes)),
		olink:  make([]int32, len(nodes)),
		hasOut: make([]bool, len(nodes)),
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

// Scan sets hit[id] for every pattern that occurs in hay as a
// substring, in one pass. hit must cover every pattern ID; entries of
// patterns that do not occur are left as they were.
func (a *Automaton) Scan(hay []byte, hit []bool) {
	s := int32(0)
	for i := 0; i < len(hay); i++ {
		s = a.step(s, hay[i])
		if !a.hasOut[s] {
			continue
		}
		t := s
		for t != 0 {
			if id := a.out[t]; id >= 0 {
				hit[id] = true
			}
			t = a.olink[t]
		}
	}
}

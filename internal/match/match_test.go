package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"panoptes/internal/obs"
)

// naiveMatches is the reference the automaton must reproduce: one
// strings.Contains pass per pattern, exactly what the pre-engine leak
// scanner did.
func naiveMatches(hay string, pats []string) []int {
	var out []int
	for id, p := range pats {
		if strings.Contains(hay, p) {
			out = append(out, id)
		}
	}
	return out
}

func sortedIDs(ms *MatchSet) []int {
	ids := append([]int(nil), ms.IDs()...)
	sort.Ints(ids)
	return ids
}

func assertScan(t *testing.T, ps *PatternSet, pats []string, hay string) {
	t.Helper()
	ms := ps.Scan([]byte(hay))
	defer ms.Release()
	got := sortedIDs(ms)
	want := naiveMatches(hay, pats)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hay %q: automaton found %v, naive found %v", hay, got, want)
	}
	for _, id := range want {
		if !ms.Has(id) {
			t.Fatalf("hay %q: Has(%d) = false for a matched pattern", hay, id)
		}
	}
}

func TestClassicOverlaps(t *testing.T) {
	// The textbook Aho-Corasick set: outputs must surface via suffix
	// links ("she" ends, so "he" must be reported too).
	pats := []string{"he", "she", "his", "hers"}
	ps := NewPatternSet("test-classic")
	for i, p := range pats {
		if id := ps.Add(p); id != i {
			t.Fatalf("Add(%q) = %d, want %d", p, id, i)
		}
	}
	for _, hay := range []string{"ushers", "she", "h", "", "hishershe", "xyz"} {
		assertScan(t, ps, pats, hay)
	}
}

func TestAddDedupAndGeneration(t *testing.T) {
	ps := NewPatternSet("test-dedup")
	a := ps.Add("needle")
	g := ps.Generation()
	if b := ps.Add("needle"); b != a {
		t.Fatalf("re-Add returned %d, want %d", b, a)
	}
	if ps.Generation() != g {
		t.Fatal("re-Add bumped the generation")
	}
	if ps.Len() != 1 {
		t.Fatalf("Len = %d", ps.Len())
	}
	if id := ps.Add(""); id != -1 {
		t.Fatalf("empty pattern accepted with id %d", id)
	}
}

func TestIncrementalAddsAcrossTiers(t *testing.T) {
	// Force tiny promotion windows so the test exercises recent-tier
	// compiles, promotion, and post-promotion adds.
	old := promoteAt
	promoteAt = 4
	defer func() { promoteAt = old }()

	ps := NewPatternSet("test-tiers")
	var pats []string
	rng := rand.New(rand.NewSource(7))
	alpha := "abcdeABCDE0123/_."
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(6)
			var sb strings.Builder
			for j := 0; j < l; j++ {
				sb.WriteByte(alpha[rng.Intn(len(alpha))])
			}
			p := sb.String()
			id := ps.Add(p)
			if prev := indexOf(pats, p); prev >= 0 {
				if id != prev {
					t.Fatalf("dup %q got id %d, want %d", p, id, prev)
				}
			} else {
				if id != len(pats) {
					t.Fatalf("%q got id %d, want %d", p, id, len(pats))
				}
				pats = append(pats, p)
			}
		}
		var hb strings.Builder
		for j := 0; j < 40; j++ {
			hb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		// Embed a known pattern so matches actually occur.
		hay := hb.String() + pats[rng.Intn(len(pats))] + hb.String()
		assertScan(t, ps, pats, hay)
	}
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

func TestMatchSetReuse(t *testing.T) {
	ps := NewPatternSet("test-reuse")
	ps.Add("aaa")
	ps.Add("bbb")
	ms := ps.Scan([]byte("xxaaaxx"))
	if !ms.Has(0) || ms.Has(1) {
		t.Fatalf("first scan: Has(0)=%v Has(1)=%v", ms.Has(0), ms.Has(1))
	}
	ms.Release()
	ms = ps.Scan([]byte("xxbbbxx"))
	defer ms.Release()
	if ms.Has(0) || !ms.Has(1) {
		t.Fatalf("pooled MatchSet kept stale state: Has(0)=%v Has(1)=%v", ms.Has(0), ms.Has(1))
	}
	if ms.Has(-1) || ms.Has(99) {
		t.Fatal("out-of-range Has must be false")
	}
}

func TestBinaryPatterns(t *testing.T) {
	// Byte-exact matching: NUL bytes, high bytes, no UTF-8 assumptions.
	pats := []string{"\x00\x01", "\xff\xfe\xff", "a\x00b"}
	ps := NewPatternSet("test-binary")
	for _, p := range pats {
		ps.Add(p)
	}
	for _, hay := range []string{"\x00\x01", "x\xff\xfe\xffy", "a\x00b", "\xff\xfe", "ab"} {
		assertScan(t, ps, pats, hay)
	}
}

func TestCaseSensitivity(t *testing.T) {
	ps := NewPatternSet("test-case")
	ps.Add("Needle")
	ms := ps.Scan([]byte("a needle in a haystack"))
	if len(ms.IDs()) != 0 {
		t.Fatal("case-sensitive engine matched a lowercase haystack")
	}
	ms.Release()
	ms = ps.Scan([]byte("a Needle in a haystack"))
	defer ms.Release()
	if !ms.Has(0) {
		t.Fatal("exact-case needle missed")
	}
}

func TestConcurrentAddAndScan(t *testing.T) {
	// Smoke for the race detector: concurrent Add + Scan must be safe.
	ps := NewPatternSet("test-conc")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ps.Add(fmt.Sprintf("needle-%d|", i))
		}
	}()
	hay := []byte("xx needle-3| yy needle-199| zz")
	for i := 0; i < 200; i++ {
		ms := ps.Scan(hay)
		ms.Release()
	}
	<-done
	ms := ps.Scan(hay)
	defer ms.Release()
	if len(ms.IDs()) != 2 {
		t.Fatalf("final scan found %d needles, want 2", len(ms.IDs()))
	}
}

func TestDictFoldLookup(t *testing.T) {
	d := NewDict(true)
	d.Add("device_type", 0)
	d.Add("DevType", 0)
	d.Add("devtype", 3) // second payload on the same folded word
	if got := d.Lookup("DEVICE_TYPE"); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Lookup(DEVICE_TYPE) = %v", got)
	}
	if got := d.Lookup("devtype"); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("Lookup(devtype) = %v", got)
	}
	if got := d.Lookup("unknown"); got != nil {
		t.Fatalf("Lookup(unknown) = %v", got)
	}
	long := strings.Repeat("A", 100) + "devtype"
	if got := d.Lookup(long); got != nil {
		t.Fatalf("long lookup = %v", got)
	}
	d.Add(long, 9)
	if got := d.Lookup(strings.Repeat("a", 100) + "DEVTYPE"); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("folded long lookup = %v", got)
	}
}

func TestDictNoFold(t *testing.T) {
	d := NewDict(false)
	d.Add("Key", 1)
	if d.Lookup("key") != nil {
		t.Fatal("unfolded dict matched different case")
	}
	if got := d.Lookup("Key"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Lookup(Key) = %v", got)
	}
}

func TestLookupDoesNotAllocateForFoldedKeys(t *testing.T) {
	d := NewDict(true)
	d.Add("uuid", 0)
	allocs := testing.AllocsPerRun(100, func() {
		d.Lookup("uuid")
		d.Lookup("UUID")
	})
	if allocs > 0 {
		t.Fatalf("Lookup allocated %.1f times per run", allocs)
	}
}

// TestScanSamplesLatency: a set times its first scan and every
// timeEvery-th after it; every scan's result is exact. obs.Default is
// process-global, so the test reads deltas.
func TestScanSamplesLatency(t *testing.T) {
	const n = 3*timeEvery + 5
	pats := []string{"he", "she", "his", "hers"}
	ps := NewPatternSet("sampling-test")
	for _, p := range pats {
		ps.Add(p)
	}
	h := obs.Default.Histogram("match_scan_ns", scanBuckets, "set", "sampling-test")
	timed0 := h.Count()
	hays := []string{"ushers", "this", "nothing"}
	for i := 1; i <= n; i++ {
		assertScan(t, ps, pats, hays[i%len(hays)])
		if got, want := h.Count()-timed0, int64((i+timeEvery-1)/timeEvery); got != want {
			t.Fatalf("after %d scans: %d timed, want %d", i, got, want)
		}
	}
}

// BenchmarkScanScalingPatterns shows the single-pass property: scan
// cost over a fixed haystack must stay roughly flat as the pattern
// population grows 64×.
func BenchmarkScanScalingPatterns(b *testing.B) {
	hay := []byte(strings.Repeat("GET /path?q=percent%20encoded&id=deadbeefcafebabe ", 40))
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("patterns=%d", n), func(b *testing.B) {
			ps := NewPatternSet(fmt.Sprintf("bench-%d", n))
			for i := 0; i < n; i++ {
				ps.Add(fmt.Sprintf("https://site-%04d.example/landing?visit=%d", i, i))
			}
			ps.Scan(hay).Release() // compile outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps.Scan(hay).Release()
			}
		})
	}
}

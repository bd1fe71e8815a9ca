package match

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
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

func assertScan(t *testing.T, pats []string, hay string) {
	t.Helper()
	hit := make([]bool, len(pats))
	Compile(pats).Scan([]byte(hay), hit)
	var got []int
	for id, h := range hit {
		if h {
			got = append(got, id)
		}
	}
	if want := naiveMatches(hay, pats); !reflect.DeepEqual(got, want) {
		t.Fatalf("hay %q: automaton found %v, naive found %v", hay, got, want)
	}
}

func TestClassicOverlaps(t *testing.T) {
	// The textbook Aho-Corasick set: outputs must surface via suffix
	// links ("she" ends, so "he" must be reported too).
	pats := []string{"he", "she", "his", "hers"}
	for _, hay := range []string{"ushers", "she", "h", "", "hishershe", "xyz"} {
		assertScan(t, pats, hay)
	}
}

func TestBinaryPatterns(t *testing.T) {
	// Byte-exact matching: NUL bytes, high bytes, no UTF-8 assumptions.
	pats := []string{"\x00\x01", "\xff\xfe\xff", "a\x00b"}
	for _, hay := range []string{"\x00\x01", "x\xff\xfe\xffy", "a\x00b", "\xff\xfe", "ab"} {
		assertScan(t, pats, hay)
	}
}

func TestCaseSensitivity(t *testing.T) {
	a := Compile([]string{"Needle"})
	var hit [1]bool
	a.Scan([]byte("a needle in a haystack"), hit[:])
	if hit[0] {
		t.Fatal("case-sensitive engine matched a lowercase haystack")
	}
	a.Scan([]byte("a Needle in a haystack"), hit[:])
	if !hit[0] {
		t.Fatal("exact-case needle missed")
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

// BenchmarkScanScalingPatterns shows the single-pass property: scan
// cost over a fixed haystack must stay roughly flat as the pattern
// population grows 64×.
func BenchmarkScanScalingPatterns(b *testing.B) {
	hay := []byte(strings.Repeat("GET /path?q=percent%20encoded&id=deadbeefcafebabe ", 40))
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("patterns=%d", n), func(b *testing.B) {
			pats := make([]string, n)
			for i := range pats {
				pats[i] = fmt.Sprintf("https://site-%04d.example/landing?visit=%d", i, i)
			}
			a := Compile(pats)
			hit := make([]bool, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Scan(hay, hit)
			}
		})
	}
}

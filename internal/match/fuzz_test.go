package match

import (
	"bytes"
	"testing"
)

// FuzzMatchVsNaive is the tentpole's correctness keystone: over
// arbitrary pattern sets and haystacks — including binary garbage —
// the automaton's matched-ID set must equal a naive strings.Contains
// sweep. The input encodes patterns and the haystack in one byte
// stream: 0xFF-separated chunks, first chunk is the haystack, the rest
// are patterns (empty and repeated chunks are dropped, as Compile
// requires).
func FuzzMatchVsNaive(f *testing.F) {
	f.Add([]byte("ushers\xffhe\xffshe\xffhis\xffhers"))
	f.Add([]byte("https://a.example/p?q=1\xffa.example\xffhttps://a.example/p?q=1\xff70a1"))
	f.Add([]byte("aaaaaaaa\xffa\xffaa\xffaaa\xffaaaa"))
	f.Add([]byte("\x00\x01\x02\xff\x00\x01\xff\x02"))
	f.Add([]byte("plain body with dGVzdA== inside\xffdGVzdA==\xff74657374"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := bytes.Split(data, []byte{0xFF})
		hay := chunks[0]
		var pats []string
		seen := map[string]bool{}
		for _, c := range chunks[1:] {
			if len(c) == 0 || len(c) > 64 || seen[string(c)] {
				continue
			}
			seen[string(c)] = true
			pats = append(pats, string(c))
			if len(pats) == 32 {
				break
			}
		}
		if len(pats) > 0 {
			assertScan(t, pats, string(hay))
		}
	})
}

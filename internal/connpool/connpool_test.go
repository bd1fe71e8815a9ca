package connpool

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeConn is a net.Conn stub that records Close.
type fakeConn struct {
	net.Conn
	mu     sync.Mutex
	closed bool
}

func (c *fakeConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *fakeConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func newTestPool(t *testing.T, cfg Config) (*Pool, *time.Time) {
	t.Helper()
	now := time.Unix(1700000000, 0)
	cfg.Now = func() time.Time { return now }
	if cfg.Name == "" {
		cfg.Name = "test_" + t.Name()
	}
	return New(cfg), &now
}

func park(t *testing.T, p *Pool, key string) *fakeConn {
	t.Helper()
	c := &fakeConn{}
	if !p.Put(key, c, bufio.NewReader(c)) {
		t.Fatalf("Put(%s) refused", key)
	}
	return c
}

func TestGetReturnsLIFO(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	c1 := park(t, p, "https|a:443")
	c2 := park(t, p, "https|a:443")

	e, ok := p.Get("https|a:443")
	if !ok || e.Conn != c2 {
		t.Fatalf("want most recently parked conn, got ok=%v conn=%p (c2=%p)", ok, e.Conn, c2)
	}
	e, ok = p.Get("https|a:443")
	if !ok || e.Conn != c1 {
		t.Fatalf("want second conn, got ok=%v", ok)
	}
	if _, ok := p.Get("https|a:443"); ok {
		t.Fatal("empty pool should miss")
	}
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Idle != 0 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 0 idle", st)
	}
}

func TestKeysAreIndependent(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	park(t, p, "https|a:443")
	if _, ok := p.Get("https|b:443"); ok {
		t.Fatal("key b should miss; only a is parked")
	}
	if _, ok := p.Get("https|a:443"); !ok {
		t.Fatal("key a should hit")
	}
}

func TestAgeEviction(t *testing.T) {
	p, now := newTestPool(t, Config{IdleAge: time.Minute})
	stale := park(t, p, "k")
	*now = now.Add(2 * time.Minute)

	if _, ok := p.Get("k"); ok {
		t.Fatal("aged entry should not be reused")
	}
	if !stale.isClosed() {
		t.Fatal("aged entry should be closed")
	}
	st := p.Stats()
	if st.EvictedAge != 1 || st.Idle != 0 {
		t.Fatalf("stats = %+v, want 1 age eviction, 0 idle", st)
	}

	// Entries under an aged one are older still: both go at once.
	park(t, p, "k")
	old2 := park(t, p, "k")
	*now = now.Add(2 * time.Minute)
	if _, ok := p.Get("k"); ok {
		t.Fatal("whole stack aged out")
	}
	if !old2.isClosed() {
		t.Fatal("older entries below the aged top must be closed too")
	}
	if st := p.Stats(); st.EvictedAge != 3 {
		t.Fatalf("EvictedAge = %d, want 3", st.EvictedAge)
	}
}

func TestAgeEvictionExactBoundary(t *testing.T) {
	p, now := newTestPool(t, Config{IdleAge: time.Minute})
	c := park(t, p, "k")

	// Aged exactly to the idle deadline: the cutoff is now-idleAge and
	// eviction requires since strictly before it, so the conn is still
	// good. The boundary is inclusive by design — a conn parked at t and
	// fetched at t+idleAge has been idle for exactly the budget, not
	// over it.
	*now = now.Add(time.Minute)
	e, ok := p.Get("k")
	if !ok || e.Conn != c {
		t.Fatalf("conn aged exactly to the idle deadline must be reused, got ok=%v", ok)
	}
	if c.isClosed() {
		t.Fatal("boundary-aged conn must not be closed")
	}
	if st := p.Stats(); st.EvictedAge != 0 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit and no age evictions", st)
	}

	// One nanosecond past the deadline the same conn is gone.
	c2 := park(t, p, "k")
	*now = now.Add(time.Minute + time.Nanosecond)
	if _, ok := p.Get("k"); ok {
		t.Fatal("conn one nanosecond past the idle deadline must be evicted")
	}
	if !c2.isClosed() {
		t.Fatal("evicted conn must be closed")
	}
	if st := p.Stats(); st.EvictedAge != 1 {
		t.Fatalf("EvictedAge = %d, want 1", st.EvictedAge)
	}
}

func TestCapacityBounds(t *testing.T) {
	p, now := newTestPool(t, Config{MaxPerKey: 2, MaxIdle: 3})
	a1 := park(t, p, "a")
	*now = now.Add(time.Second)
	a2 := park(t, p, "a")
	*now = now.Add(time.Second)

	// A full key makes room by closing its own oldest entry.
	a3 := park(t, p, "a")
	if !a1.isClosed() || a2.isClosed() {
		t.Fatal("per-key cap must evict and close the key's oldest entry only")
	}
	*now = now.Add(time.Second)
	b1 := park(t, p, "b")
	*now = now.Add(time.Second)

	// A full pool makes room by closing the pool-wide oldest entry,
	// whatever its key.
	c1 := park(t, p, "c")
	if !a2.isClosed() || a3.isClosed() || b1.isClosed() || c1.isClosed() {
		t.Fatal("global cap must evict and close the pool-wide oldest entry only")
	}
	if st := p.Stats(); st.EvictedCap != 2 || st.Idle != 3 {
		t.Fatalf("stats = %+v, want 2 capacity evictions, 3 idle", st)
	}
	for _, want := range []struct {
		key  string
		conn *fakeConn
	}{{"a", a3}, {"b", b1}, {"c", c1}} {
		e, ok := p.Get(want.key)
		if !ok || e.Conn != want.conn {
			t.Fatalf("Get(%s): ok=%v, want the surviving entry", want.key, ok)
		}
	}
	if _, ok := p.Get("a"); ok {
		t.Fatal("key a must hold at most MaxPerKey entries")
	}
}

// TestFullPoolParksFreshConn pins the reason for LRU eviction: a pool
// filled by one-shot keys, never fetched again, must still park a fresh
// connection and hand it back on the next Get for its key.
func TestFullPoolParksFreshConn(t *testing.T) {
	p, now := newTestPool(t, Config{MaxIdle: 4})
	var oneShots []*fakeConn
	for i := 0; i < 4; i++ {
		oneShots = append(oneShots, park(t, p, fmt.Sprintf("once-%d", i)))
		*now = now.Add(time.Second)
	}
	for round := 0; round < 3; round++ {
		c := park(t, p, "busy")
		e, ok := p.Get("busy")
		if !ok || e.Conn != c {
			t.Fatalf("round %d: fresh conn on a full pool was not reused", round)
		}
	}
	if !oneShots[0].isClosed() {
		t.Fatal("the oldest one-shot entry must be evicted")
	}
	for _, c := range oneShots[1:] {
		if c.isClosed() {
			t.Fatal("only the oldest one-shot entry should have gone")
		}
	}
	if st := p.Stats(); st.EvictedCap != 1 || st.Hits != 3 || st.Idle != 3 {
		t.Fatalf("stats = %+v, want 1 capacity eviction, 3 hits, 3 idle", st)
	}
}

func TestPoisonDropsIdleConns(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	c1 := park(t, p, "k")
	c2 := park(t, p, "k")
	poisoned := false
	p.SetFaultHook(func(key string) error {
		if poisoned {
			return errors.New("injected")
		}
		return nil
	})

	if _, ok := p.Get("k"); !ok {
		t.Fatal("healthy hook should not block reuse")
	}
	p.Put("k", c2, nil)

	poisoned = true
	if _, ok := p.Get("k"); ok {
		t.Fatal("poisoned key must miss")
	}
	if !c1.isClosed() || !c2.isClosed() {
		t.Fatal("poison must close every idle conn for the key")
	}
	if st := p.Stats(); st.Poisoned != 2 {
		t.Fatalf("Poisoned = %d, want 2", st.Poisoned)
	}

	// The key recovers once the hook stops firing.
	poisoned = false
	park(t, p, "k")
	if _, ok := p.Get("k"); !ok {
		t.Fatal("key should serve again after the poison clears")
	}
}

func TestCloseIdle(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	c := park(t, p, "k")
	p.CloseIdle()
	if !c.isClosed() {
		t.Fatal("CloseIdle must close parked conns")
	}
	if p.Put("k", &fakeConn{}, nil) {
		t.Fatal("closed pool must refuse Puts")
	}
	if _, ok := p.Get("k"); ok {
		t.Fatal("closed pool has nothing to give")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p, _ := newTestPool(t, Config{MaxPerKey: 8, MaxIdle: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e, ok := p.Get("k")
				if !ok {
					e = Entry{Conn: &fakeConn{}}
				}
				if !p.Put("k", e.Conn, e.R) {
					e.Conn.Close()
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Idle > 8 {
		t.Fatalf("idle %d exceeds per-key cap", st.Idle)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("accounting drift: hits %d + misses %d != 1600", st.Hits, st.Misses)
	}
}

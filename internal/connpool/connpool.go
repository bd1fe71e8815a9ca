// Package connpool is a keyed idle-connection pool for the MITM proxy's
// upstream data plane. Each key (scheme + authority) owns a LIFO stack
// of idle connections with their buffered readers attached — the reader
// travels with the connection because bytes it buffered belong to that
// connection's stream. Entries are stamped with the pool clock (the
// virtual clock inside the testbed) and aged out on Get, so a pool
// running under a fast-forwarding simulation evicts exactly as a
// wall-clock pool would under real time.
//
// At capacity the pool makes room instead of refusing, like the idle
// LRU of net/http.Transport: a Put onto a full key closes that key's
// least-recently-parked entry, and a Put onto a full pool closes the
// least-recently-parked entry of any key. A crawl touches many one-off
// hosts whose entries are never fetched again; refusing fresh
// connections would keep those entries parked and make every busy host
// redial.
//
// The pool never dials: a Get miss tells the caller to dial, and Put
// offers the connection back after a clean exchange. A fault hook
// (faultsim.Injector.PoolFault) can poison a key, dropping its idle
// connections so the caller redials — the chaos stand-in for a NAT or
// middlebox silently killing pooled connections.
package connpool

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/obs"
)

func init() {
	obs.Default.Help("connpool_get_total", "Idle-pool lookups by result (hit = reused connection, miss = caller must dial).")
	obs.Default.Help("connpool_evicted_total", "Idle connections closed instead of reused, by reason (age, capacity, poison, close).")
	obs.Default.Help("connpool_idle_conns", "Connections currently parked in each idle pool.")
}

// Entry is one pooled connection with its buffered read side. Session,
// when non-nil, carries transport state that must travel with the
// connection (an HTTP/2 client whose stream counter belongs to exactly
// this conn); pool keys include the negotiated ALPN so an h2 entry can
// never be handed to an h1 exchange or vice versa.
type Entry struct {
	Conn    net.Conn
	R       *bufio.Reader
	Session any
}

// idleConn is a parked Entry. It sits in its key's stack and in the
// pool-wide list ordered by park time.
type idleConn struct {
	Entry
	key          string
	since        time.Time
	older, newer *idleConn
}

// Config sizes a Pool. The zero value takes every default.
type Config struct {
	// Name labels the pool's obs series (default "upstream").
	Name string
	// MaxPerKey bounds idle connections parked per key (default 8).
	MaxPerKey int
	// MaxIdle bounds idle connections across all keys (default 256).
	MaxIdle int
	// IdleAge evicts entries parked longer than this on the pool clock
	// (default 2 minutes — generous against the virtual clock's
	// seconds-per-visit advance, so reuse survives a crawl).
	IdleAge time.Duration
	// Now is the pool clock (default time.Now; the testbed passes the
	// virtual clock).
	Now func() time.Time
}

// Stats is a pool's lifetime accounting.
type Stats struct {
	Hits       int64 // Gets served from the pool
	Misses     int64 // Gets the caller had to dial for
	EvictedAge int64 // idle entries closed for age
	EvictedCap int64 // idle entries closed to make room for a fresher one
	Poisoned   int64 // idle entries dropped by the fault hook
	Idle       int   // entries currently parked
}

// Pool is a keyed idle-connection pool, safe for concurrent use.
type Pool struct {
	name      string
	maxPerKey int
	maxIdle   int
	idleAge   time.Duration
	now       func() time.Time

	mu     sync.Mutex
	idle   map[string][]*idleConn // per key, oldest first
	oldest *idleConn              // pool-wide park order
	newest *idleConn
	total  int
	closed bool

	// fault, when set, is consulted on Get: a non-nil error poisons the
	// key — its idle entries are dropped and the caller redials.
	fault atomic.Pointer[func(key string) error]

	hits, misses, evictedAge, evictedCap, poisoned atomic.Int64

	obsHit, obsMiss                             *obs.Counter
	obsEvAge, obsEvCap, obsEvPoison, obsEvClose *obs.Counter
	obsIdle                                     *obs.Gauge
}

// New builds a pool.
func New(cfg Config) *Pool {
	if cfg.Name == "" {
		cfg.Name = "upstream"
	}
	if cfg.MaxPerKey <= 0 {
		cfg.MaxPerKey = 8
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = 256
	}
	if cfg.IdleAge <= 0 {
		cfg.IdleAge = 2 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Pool{
		name:        cfg.Name,
		maxPerKey:   cfg.MaxPerKey,
		maxIdle:     cfg.MaxIdle,
		idleAge:     cfg.IdleAge,
		now:         cfg.Now,
		idle:        make(map[string][]*idleConn),
		obsHit:      obs.Default.Counter("connpool_get_total", "pool", cfg.Name, "result", "hit"),
		obsMiss:     obs.Default.Counter("connpool_get_total", "pool", cfg.Name, "result", "miss"),
		obsEvAge:    obs.Default.Counter("connpool_evicted_total", "pool", cfg.Name, "reason", "age"),
		obsEvCap:    obs.Default.Counter("connpool_evicted_total", "pool", cfg.Name, "reason", "capacity"),
		obsEvPoison: obs.Default.Counter("connpool_evicted_total", "pool", cfg.Name, "reason", "poison"),
		obsEvClose:  obs.Default.Counter("connpool_evicted_total", "pool", cfg.Name, "reason", "close"),
		obsIdle:     obs.Default.Gauge("connpool_idle_conns", "pool", cfg.Name),
	}
}

// SetFaultHook installs (or clears, with nil) the poison hook consulted
// on every Get.
func (p *Pool) SetFaultHook(fn func(key string) error) {
	if fn == nil {
		p.fault.Store(nil)
		return
	}
	p.fault.Store(&fn)
}

// Get pops the most recently parked live connection for key. The second
// return is false when the caller must dial: nothing parked, everything
// aged out, or the key is poisoned.
func (p *Pool) Get(key string) (Entry, bool) {
	var poison func(string) error
	if fn := p.fault.Load(); fn != nil {
		poison = *fn
	}
	cutoff := p.now().Add(-p.idleAge)

	p.mu.Lock()
	stack := p.idle[key]
	if len(stack) == 0 {
		p.mu.Unlock()
		p.miss()
		return Entry{}, false
	}
	if poison != nil && poison(key) != nil {
		// Poisoned: every idle connection for this key is silently dead.
		p.dropLocked(key, stack)
		p.mu.Unlock()
		closeAll(stack)
		p.poisoned.Add(int64(len(stack)))
		p.obsEvPoison.Add(int64(len(stack)))
		p.miss()
		return Entry{}, false
	}
	top := stack[len(stack)-1]
	if top.since.Before(cutoff) {
		// The stack is in park order, so everything under an aged top
		// is older still; drop the whole stack with it.
		p.dropLocked(key, stack)
		p.mu.Unlock()
		closeAll(stack)
		p.evictedAge.Add(int64(len(stack)))
		p.obsEvAge.Add(int64(len(stack)))
		p.miss()
		return Entry{}, false
	}
	stack[len(stack)-1] = nil
	p.setLocked(key, stack[:len(stack)-1])
	p.unlinkLocked(top)
	p.mu.Unlock()
	p.hits.Add(1)
	p.obsHit.Inc()
	p.obsIdle.Dec()
	return top.Entry, true
}

// Put offers a connection back after a clean exchange. It reports
// whether the pool kept it; on false (the pool is closed) the caller
// still owns, and should close, the connection.
func (p *Pool) Put(key string, conn net.Conn, r *bufio.Reader) bool {
	return p.PutEntry(key, Entry{Conn: conn, R: r})
}

// PutEntry offers a full entry back, preserving any attached transport
// session. Semantics match Put. When the key or the pool is full, the
// least-recently-parked entry of the key, or else of the pool, is
// closed to make room.
func (p *Pool) PutEntry(key string, e Entry) bool {
	ic := &idleConn{Entry: e, key: key, since: p.now()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.obsEvClose.Inc()
		return false
	}
	var victim *idleConn
	if stack := p.idle[key]; len(stack) >= p.maxPerKey {
		victim = stack[0]
	} else if p.total >= p.maxIdle {
		victim = p.oldest
	}
	if victim != nil {
		// A key's stack is in park order, so its oldest entry, like the
		// pool's, sits at the bottom.
		stack := p.idle[victim.key]
		copy(stack, stack[1:])
		stack[len(stack)-1] = nil
		p.setLocked(victim.key, stack[:len(stack)-1])
		p.unlinkLocked(victim)
	}
	p.idle[key] = append(p.idle[key], ic)
	ic.older = p.newest
	if p.newest != nil {
		p.newest.newer = ic
	} else {
		p.oldest = ic
	}
	p.newest = ic
	p.total++
	p.mu.Unlock()
	if victim != nil {
		victim.Conn.Close()
		p.evictedCap.Add(1)
		p.obsEvCap.Inc()
		return true
	}
	p.obsIdle.Inc()
	return true
}

// CloseIdle closes every parked connection and refuses further Puts.
func (p *Pool) CloseIdle() {
	p.mu.Lock()
	p.closed = true
	var all []*idleConn
	for ic := p.oldest; ic != nil; ic = ic.newer {
		all = append(all, ic)
	}
	p.idle = make(map[string][]*idleConn)
	p.oldest, p.newest = nil, nil
	n := p.total
	p.total = 0
	p.mu.Unlock()
	closeAll(all)
	if n > 0 {
		p.obsEvClose.Add(int64(n))
		p.obsIdle.Add(-float64(n))
	}
}

// Stats returns lifetime accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	idle := p.total
	p.mu.Unlock()
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		EvictedAge: p.evictedAge.Load(),
		EvictedCap: p.evictedCap.Load(),
		Poisoned:   p.poisoned.Load(),
		Idle:       idle,
	}
}

func (p *Pool) miss() {
	p.misses.Add(1)
	p.obsMiss.Inc()
}

// dropLocked forgets a key's whole stack; the caller closes the
// connections after unlocking and accounts the eviction reason.
func (p *Pool) dropLocked(key string, stack []*idleConn) {
	for _, ic := range stack {
		p.unlinkLocked(ic)
	}
	delete(p.idle, key)
	p.obsIdle.Add(-float64(len(stack)))
}

// unlinkLocked removes ic from the pool-wide park order.
func (p *Pool) unlinkLocked(ic *idleConn) {
	if ic.older != nil {
		ic.older.newer = ic.newer
	} else {
		p.oldest = ic.newer
	}
	if ic.newer != nil {
		ic.newer.older = ic.older
	} else {
		p.newest = ic.older
	}
	ic.older, ic.newer = nil, nil
	p.total--
}

// setLocked stores a (possibly emptied) stack back under key.
func (p *Pool) setLocked(key string, stack []*idleConn) {
	if len(stack) == 0 {
		delete(p.idle, key)
		return
	}
	p.idle[key] = stack
}

func closeAll(stack []*idleConn) {
	for _, ic := range stack {
		ic.Conn.Close()
	}
}

// Package vclock provides a deterministic virtual clock.
//
// All time-driven behaviour in the Panoptes simulation — browser telemetry
// schedulers, page-load timeouts, the ten-minute idle experiment — runs on a
// Clock instead of the wall clock. Advancing the clock fires due timers
// synchronously, in timestamp order, which makes long experiments run in
// milliseconds and makes every run reproducible.
package vclock

import (
	"container/heap"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Epoch is the instant at which every new Clock starts. The value is
// arbitrary but fixed so that captured flows carry stable timestamps.
var Epoch = time.Date(2023, time.May, 12, 9, 0, 0, 0, time.UTC)

// Clock is a deterministic virtual clock. The zero value is not usable;
// construct one with New.
//
// Timer callbacks run synchronously on the goroutine that advances the
// clock. A callback may schedule further timers (including at the current
// instant) and may perform blocking work such as in-memory network I/O;
// the clock does not advance while a callback runs.
//
// Advance and AdvanceTo may be called from multiple goroutines: advances
// are serialized, each one running to completion (all due timers fired)
// before the next begins. A timer callback advancing its own clock still
// panics — with serialization alone that mistake would deadlock instead
// of failing loudly.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    uint64 // tie-break for timers scheduled at the same instant

	advMu   sync.Mutex   // serializes cross-goroutine advances
	advGoID atomic.Int64 // goroutine running the current advance; 0 when idle
}

// New returns a Clock set to Epoch.
func New() *Clock {
	return &Clock{now: Epoch}
}

// NewAt returns a Clock set to the given instant.
func NewAt(t time.Time) *Clock {
	return &Clock{now: t}
}

// Now returns the current virtual instant.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Timer is a handle to a scheduled callback. It is returned by AfterFunc
// and At.
type Timer struct {
	clock   *Clock
	when    time.Time
	seq     uint64
	fn      func()
	stopped bool
	index   int // heap index; -1 when not in the heap
}

// Stop cancels the timer. It reports whether the timer was still pending.
// Stopping an already-fired or already-stopped timer is a no-op.
func (t *Timer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.stopped || t.index < 0 {
		return false
	}
	t.stopped = true
	heap.Remove(&t.clock.timers, t.index)
	return true
}

// AfterFunc schedules fn to run when the clock has advanced by d.
// A non-positive d schedules fn at the current instant; it still only runs
// on the next Advance (or Fire) call, never inline.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scheduleLocked(c.now.Add(d), fn)
}

func (c *Clock) scheduleLocked(when time.Time, fn func()) *Timer {
	if fn == nil {
		panic("vclock: AfterFunc with nil function")
	}
	c.seq++
	t := &Timer{clock: c, when: when, seq: c.seq, fn: fn, index: -1}
	heap.Push(&c.timers, t)
	return t
}

// Ticker repeatedly reschedules a callback at a fixed period until stopped.
type Ticker struct {
	mu      sync.Mutex
	clock   *Clock
	period  time.Duration
	fn      func()
	timer   *Timer
	stopped bool
}

// Tick schedules fn to run every period of virtual time, first at
// now+period. It panics if period is not positive.
func (c *Clock) Tick(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("vclock: non-positive tick period %v", period))
	}
	tk := &Ticker{clock: c, period: period, fn: fn}
	tk.arm()
	return tk
}

func (tk *Ticker) arm() {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if tk.stopped {
		return
	}
	tk.timer = tk.clock.AfterFunc(tk.period, func() {
		tk.fn()
		tk.arm()
	})
}

// Stop cancels the ticker. It is safe to call more than once.
func (tk *Ticker) Stop() {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	tk.stopped = true
	if tk.timer != nil {
		tk.timer.Stop()
	}
}

// Advance moves the clock forward by d, firing every timer due in the
// window in timestamp order (FIFO among equal timestamps). Callbacks run
// synchronously; timers they schedule inside the window also fire.
// Advance panics on negative d and on reentrant use. Concurrent Advance
// calls serialize and compose: the deltas accumulate, each advance
// starting from wherever the previous one ended.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	defer c.beginAdvance()()
	// The target is computed under the advance lock so that relative
	// advances from different goroutines never collapse onto the same
	// instant.
	c.advanceLoop(c.Now().Add(d))
}

// AdvanceTo moves the clock forward to the given instant, firing due
// timers. Instants not after the current time fire only timers due at or
// before them without moving the clock backwards. Concurrent calls are
// serialized; a later-started advance with an earlier target is then a
// no-op, which keeps time monotonic.
func (c *Clock) AdvanceTo(target time.Time) {
	defer c.beginAdvance()()
	c.advanceLoop(target)
}

// beginAdvance takes the advance lock for the calling goroutine, first
// panicking if that goroutine is already mid-advance (a timer callback
// advancing its own clock). It returns the matching release func.
func (c *Clock) beginAdvance() func() {
	gid := goid()
	if c.advGoID.Load() == gid {
		panic("vclock: reentrant Advance (a timer callback advanced the clock)")
	}
	c.advMu.Lock()
	c.advGoID.Store(gid)
	return func() {
		c.advGoID.Store(0)
		c.advMu.Unlock()
	}
}

// advanceLoop fires timers up to target and moves the clock there.
// Callers hold the advance lock.
func (c *Clock) advanceLoop(target time.Time) {
	for {
		c.mu.Lock()
		if len(c.timers) == 0 || c.timers[0].when.After(target) {
			if target.After(c.now) {
				c.now = target
			}
			c.mu.Unlock()
			return
		}
		t := heap.Pop(&c.timers).(*Timer)
		if t.when.After(c.now) {
			c.now = t.when
		}
		c.mu.Unlock()
		if !t.stopped {
			t.fn()
		}
	}
}

// Fire runs every timer due at the current instant without advancing the
// clock. It returns the number of callbacks that ran.
func (c *Clock) Fire() int {
	n := 0
	for {
		c.mu.Lock()
		if len(c.timers) == 0 || c.timers[0].when.After(c.now) {
			c.mu.Unlock()
			return n
		}
		t := heap.Pop(&c.timers).(*Timer)
		c.mu.Unlock()
		if !t.stopped {
			t.fn()
			n++
		}
	}
}

// Pending returns the number of timers currently scheduled.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// NextDeadline returns the due instant of the earliest pending timer and
// whether one exists.
func (c *Clock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return time.Time{}, false
	}
	return c.timers[0].when, true
}

// Drain advances the clock until no timers remain or until limit callbacks
// have fired, whichever comes first. It returns the number of callbacks
// fired. Drain is the idle-experiment driver: with periodic tickers
// running, use Advance with an explicit horizon instead.
func (c *Clock) Drain(limit int) int {
	fired := 0
	for fired < limit {
		deadline, ok := c.NextDeadline()
		if !ok {
			return fired
		}
		c.AdvanceTo(deadline)
		fired++
		// AdvanceTo may have fired several timers at the same instant;
		// counting each loop iteration as one keeps the bound conservative
		// but the loop terminates regardless because timers only drain.
	}
	return fired
}

// goid returns the calling goroutine's ID, parsed from the stack header
// ("goroutine N [running]:"). It is how AdvanceTo tells a reentrant
// advance (same goroutine, inside a timer callback — a bug to panic on)
// apart from a concurrent one (different goroutine — serialized and
// legal). The parse costs a few hundred nanoseconds, negligible against
// the per-visit cadence at which the clock is advanced.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseInt(s[:i], 10, 64); err == nil {
			return id
		}
	}
	return -1
}

// timerHeap is a min-heap ordered by (when, seq).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

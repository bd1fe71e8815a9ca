package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	c := New()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), Epoch)
	}
}

func TestNewAt(t *testing.T) {
	at := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewAt(at)
	if !c.Now().Equal(at) {
		t.Fatalf("Now() = %v, want %v", c.Now(), at)
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	c := New()
	c.Advance(3 * time.Second)
	if got := c.Since(Epoch); got != 3*time.Second {
		t.Fatalf("Since(Epoch) = %v, want 3s", got)
	}
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	c := New()
	var firedAt time.Time
	c.AfterFunc(5*time.Second, func() { firedAt = c.Now() })
	c.Advance(4 * time.Second)
	if !firedAt.IsZero() {
		t.Fatal("timer fired early")
	}
	c.Advance(time.Second)
	if want := Epoch.Add(5 * time.Second); !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestAfterFuncNonPositiveDelayFiresOnNextAdvance(t *testing.T) {
	c := New()
	fired := false
	c.AfterFunc(0, func() { fired = true })
	if fired {
		t.Fatal("fired inline")
	}
	c.Advance(0)
	if !fired {
		t.Fatal("did not fire on zero advance")
	}
}

func TestTimersFireInOrder(t *testing.T) {
	c := New()
	var order []int
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestStopPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	c := New()
	tm := c.AfterFunc(time.Second, func() {})
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestCallbackSchedulesWithinWindow(t *testing.T) {
	c := New()
	var fired []time.Duration
	c.AfterFunc(time.Second, func() {
		fired = append(fired, c.Since(Epoch))
		c.AfterFunc(time.Second, func() {
			fired = append(fired, c.Since(Epoch))
		})
	})
	c.Advance(5 * time.Second)
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v, want [1s 2s]", fired)
	}
	if got := c.Since(Epoch); got != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", got)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := New()
	n := 0
	tk := c.Tick(time.Minute, func() { n++ })
	c.Advance(10 * time.Minute)
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
	tk.Stop()
	c.Advance(10 * time.Minute)
	if n != 10 {
		t.Fatalf("ticks after Stop = %d, want 10", n)
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	c := New()
	tk := c.Tick(time.Second, func() {})
	tk.Stop()
	tk.Stop()
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d after ticker stop, want 0", got)
	}
}

func TestTickPanicsOnNonPositivePeriod(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero period")
		}
	}()
	c.Tick(0, func() {})
}

func TestAdvanceToBackwardsIsNoop(t *testing.T) {
	c := New()
	c.Advance(time.Hour)
	c.AdvanceTo(Epoch)
	if got := c.Since(Epoch); got != time.Hour {
		t.Fatalf("clock moved backwards to %v", got)
	}
}

func TestPendingAndNextDeadline(t *testing.T) {
	c := New()
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline ok on empty clock")
	}
	c.AfterFunc(2*time.Second, func() {})
	c.AfterFunc(1*time.Second, func() {})
	if got := c.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	dl, ok := c.NextDeadline()
	if !ok || !dl.Equal(Epoch.Add(time.Second)) {
		t.Fatalf("NextDeadline = %v %v", dl, ok)
	}
}

func TestDrainRunsAllTimers(t *testing.T) {
	c := New()
	n := 0
	for i := 1; i <= 5; i++ {
		c.AfterFunc(time.Duration(i)*time.Second, func() { n++ })
	}
	c.Drain(100)
	if n != 5 {
		t.Fatalf("drained %d, want 5", n)
	}
}

func TestDrainRespectsLimit(t *testing.T) {
	c := New()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		c.AfterFunc(time.Second, reschedule)
	}
	c.AfterFunc(time.Second, reschedule)
	c.Drain(7)
	if n != 7 {
		t.Fatalf("drained %d, want 7", n)
	}
}

func TestReentrantAdvancePanics(t *testing.T) {
	c := New()
	c.AfterFunc(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on reentrant Advance")
			}
		}()
		c.Advance(time.Second)
	})
	c.Advance(2 * time.Second)
}

func TestNegativeAdvancePanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	c.Advance(-time.Second)
}

func TestConcurrentScheduling(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	var mu sync.Mutex
	n := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AfterFunc(time.Second, func() {
				mu.Lock()
				n++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	c.Advance(time.Second)
	if n != 50 {
		t.Fatalf("fired %d, want 50", n)
	}
}

// Property: for any set of non-negative delays, advancing past the maximum
// fires every timer exactly once, in non-decreasing deadline order.
func TestPropertyAllTimersFireInOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		c := New()
		var fired []time.Time
		var max time.Duration
		for _, d := range delays {
			dur := time.Duration(d) * time.Millisecond
			if dur > max {
				max = dur
			}
			c.AfterFunc(dur, func() { fired = append(fired, c.Now()) })
		}
		c.Advance(max + time.Second)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: clock time after a sequence of advances equals the sum.
func TestPropertyAdvanceAccumulates(t *testing.T) {
	f := func(steps []uint16) bool {
		c := New()
		var total time.Duration
		for _, s := range steps {
			d := time.Duration(s) * time.Millisecond
			total += d
			c.Advance(d)
		}
		return c.Since(Epoch) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAdvances(t *testing.T) {
	// Many goroutines advancing the same clock must serialize: every due
	// timer fires exactly once and the clock lands on the furthest target.
	c := New()
	const ticks = 200
	var fired atomic.Int64
	tk := c.Tick(time.Second, func() { fired.Add(1) })
	defer tk.Stop()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ticks/8; i++ {
				c.Advance(time.Second)
			}
		}()
	}
	wg.Wait()

	if got := c.Since(Epoch); got != ticks*time.Second {
		t.Fatalf("clock advanced %v, want %v", got, ticks*time.Second)
	}
	if got := fired.Load(); got != ticks {
		t.Fatalf("ticker fired %d times, want %d", got, ticks)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.AfterFunc(time.Millisecond, func() {})
		c.Advance(time.Millisecond)
	}
}

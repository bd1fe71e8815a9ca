package core

import (
	"fmt"
	"sync"
	"time"

	"panoptes/internal/capture"
)

// idleCollector is a transient pipeline analyzer that gathers one
// browser's native flows during the idle window. Collecting off the
// commit tap instead of filtering the store afterwards keeps the idle
// experiment working when flow retention is off.
type idleCollector struct {
	uid int

	mu    sync.Mutex
	flows []*capture.Flow
}

func (c *idleCollector) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative || f.BrowserUID != c.uid {
		return
	}
	f.Ref() // the collector outlives the exchange that produced the flow
	c.mu.Lock()
	c.flows = append(c.flows, f)
	c.mu.Unlock()
}

func (c *idleCollector) Finalize() any { return c.window(time.Time{}, time.Time{}) }

// window returns the collected flows inside [start, end]; zero bounds
// mean unbounded.
func (c *idleCollector) window(start, end time.Time) []*capture.Flow {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*capture.Flow
	for _, f := range c.flows {
		if !start.IsZero() && f.Time.Before(start) {
			continue
		}
		if !end.IsZero() && f.Time.After(end) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// IdleResult is one browser's idle phone-home record (§3.5 / Figure 5).
type IdleResult struct {
	Browser string
	Start   time.Time
	End     time.Time
	// Flows are the native flows captured during the idle window, in
	// order; Figure 5 bins their timestamps.
	Flows []*capture.Flow
}

// RunIdle reproduces §3.5: launch the browser, leave it at the start
// page with no interaction for the given duration of virtual time while
// its traffic is diverted, and collect the native requests it makes.
func (w *World) RunIdle(browserName string, duration time.Duration) (*IdleResult, error) {
	b, err := w.Browser(browserName)
	if err != nil {
		return nil, err
	}
	sess, err := w.AppiumClient.NewSession(b.Pkg.Name)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	if err := sess.Reset(); err != nil {
		return nil, fmt.Errorf("core: idle reset: %w", err)
	}
	if !w.Device.DiversionActive(b.UID()) {
		if err := w.Device.DivertBrowser(b.UID(), ProxyAddr); err != nil {
			return nil, err
		}
	}
	// Collect off the commit tap (registered before Launch: the launch
	// and wizard flows are stamped at the window's start instant and
	// belong to the idle record).
	col := &idleCollector{uid: b.UID()}
	colName := "idle:" + browserName
	w.Pipeline.Register(colName, col)
	defer w.Pipeline.Unregister(colName)
	if err := sess.Launch(); err != nil {
		return nil, fmt.Errorf("core: idle launch: %w", err)
	}
	defer sess.Terminate()
	// The wizard still has to be clicked through before the start page
	// shows; no navigation follows.
	if err := sess.CompleteWizard(); err != nil {
		return nil, err
	}

	uid := b.UID()
	idleSpan := w.Trace.Start("idle")
	idleSpan.SetAttr("browser", browserName)
	w.Trace.SetActive(uid, idleSpan)

	// Step the world clock and the browser's activity clock together in
	// ticker-sized increments: the idle scheduler fires on the activity
	// clock, and advancing the world clock to each tick instant first
	// stamps those flows at the same virtual times a single shared-clock
	// advance used to — which is what Figure 5's binning consumes.
	start := w.Clock.Now()
	const step = 5 * time.Second
	for remaining := duration; remaining > 0; {
		d := step
		if remaining < d {
			d = remaining
		}
		w.Clock.Advance(d)
		b.AdvanceActivity(d)
		remaining -= d
	}
	end := w.Clock.Now()

	w.Trace.SetActive(uid, nil)
	idleSpan.End()
	return &IdleResult{Browser: browserName, Start: start, End: end, Flows: col.window(start, end)}, nil
}

// RunIdleAll runs the idle experiment for every browser in the world.
func (w *World) RunIdleAll(duration time.Duration) (map[string]*IdleResult, error) {
	out := make(map[string]*IdleResult, len(w.Browsers))
	for name := range w.Browsers {
		r, err := w.RunIdle(name, duration)
		if err != nil {
			return out, err
		}
		out[name] = r
	}
	return out, nil
}

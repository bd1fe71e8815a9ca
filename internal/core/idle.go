package core

import (
	"fmt"
	"time"

	"panoptes/internal/analysis"
)

// IdleResult is one browser's idle phone-home record (§3.5 / Figure 5).
type IdleResult struct {
	Browser string
	Start   time.Time
	End     time.Time
	// Series is the window's Figure 5 timeline: the browser's native
	// requests in idleBinSeconds bins.
	Series analysis.Fig5Series
}

// idleBinSeconds is Figure 5's bin width.
const idleBinSeconds = 10

// RunIdle reproduces §3.5: launch the browser, leave it at the start
// page with no interaction for the given duration of virtual time while
// its traffic is diverted, and bin the native requests it makes.
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
	// Bin off the commit tap, which keeps the experiment working when
	// flow retention is off. The analyzer is registered before Launch:
	// the launch and wizard flows are stamped at the window's start
	// instant and belong to the idle record.
	curve := analysis.NewFig5Analyzer([]string{browserName}, w.Clock.Now(), duration, idleBinSeconds)
	curveName := "idle:" + browserName
	w.Pipeline.Register(curveName, curve)
	defer w.Pipeline.Unregister(curveName)
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
	return &IdleResult{Browser: browserName, Start: start, End: end, Series: curve.Series()[0]}, nil
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

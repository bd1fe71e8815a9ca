package fabric

import (
	"sync"
	"time"

	"panoptes/internal/browser"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/faultsim"
	"panoptes/internal/websim"
)

// lease is one issued unit of work: a slice of one browser's site list
// plus the session state the previous accepted lease left behind. Tag is
// the issue's generation — the coordinator's dedupe key.
type lease struct {
	Browser string
	Seq     int
	Sites   []*websim.Site
	State   *browser.SessionState
	Tag     int64

	reclaimed chan struct{} // closed when the coordinator reclaims this issue
}

// leaseResult is a worker's completion report. flowCount lets the
// reducer cross-check that every shipped batch arrived before the lease
// is committed.
type leaseResult struct {
	visits    []core.VisitRecord
	state     *browser.SessionState
	retries   int
	degraded  int
	errors    int
	flowCount int
}

// shipper is the worker-side capture.Tap: it rides the worker DB's
// commit stream next to the worker's own streaming pipeline and ships
// committed flows to the coordinator tagged with the current lease
// issue. The DB hands it a sealed attempt's flows in capture order and
// then the Seal notice, so the shipper collects them and ships the
// attempt as one transport message at Seal (worker campaigns run at
// parallelism 1, so one attempt seals at a time). Flows committed
// outside any attempt (settle-period telemetry) ship at once. A
// quarantined attempt's flows never reach the shipper, so they never
// cross the transport.
type shipper struct {
	cl *client

	mu      sync.Mutex
	tag     int64
	sealing []*capture.Flow // the sealing attempt's flows, shipped at Seal
	shipped int
	err     error // first transport failure: the lease issue is doomed
}

func newShipper(cl *client) *shipper { return &shipper{cl: cl} }

// begin rebinds the shipper to a new lease issue.
func (sh *shipper) begin(tag int64) {
	sh.mu.Lock()
	sh.tag = tag
	sh.shipped = 0
	sh.err = nil
	for _, f := range sh.sealing {
		f.Release()
	}
	sh.sealing = nil
	sh.mu.Unlock()
}

func (sh *shipper) doomed() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.err
}

func (sh *shipper) shippedCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.shipped
}

// Observe implements capture.Tap.
func (sh *shipper) Observe(f *capture.Flow) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.tag == 0 {
		return
	}
	f.Ref()
	if f.Attempt != 0 {
		sh.sealing = append(sh.sealing, f)
		return
	}
	sh.shipLocked([]*capture.Flow{f})
}

// Seal implements capture.Tap: the attempt's flows have all arrived,
// ship them.
func (sh *shipper) Seal(int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	flows := sh.sealing
	sh.sealing = nil // the message owns the slice from here on
	sh.shipLocked(flows)
}

// Retract implements capture.Tap. The attempt's flows never reached
// the shipper; the worker's heartbeat pump keeps the lease fresh
// through retry ladders that commit nothing.
func (sh *shipper) Retract(int64) {}

func (sh *shipper) shipLocked(flows []*capture.Flow) {
	if len(flows) == 0 {
		return
	}
	if sh.err != nil {
		for _, f := range flows {
			f.Release()
		}
		return
	}
	if err := sh.cl.send(message{kind: msgFlows, tag: sh.tag, flows: flows}); err != nil {
		// Undelivered: the references are ours again. The lease cannot
		// be completed truthfully any more — mark it doomed; the worker
		// abandons it and the coordinator reclaims by expiry.
		for _, f := range flows {
			f.Release()
		}
		sh.err = err
		return
	}
	sh.shipped += len(flows)
}

// worker runs one full measurement plane, executing leases until the
// plan drains. Worker worlds are never shared between goroutines.
type worker struct {
	id      string
	world   *core.World
	coord   *coordinator
	cfg     *Config
	cl      *client
	ship    *shipper
	faults  *faultsim.Injector
	leaseNo int
}

func newWorker(id string, w *core.World, c *coordinator, cfg *Config) *worker {
	cl := newClient(cfg.Mode, c, cfg, id, w)
	sh := newShipper(cl)
	// The shipper rides the commit tap beside the worker's own streaming
	// pipeline (the worker plane keeps analyzing; its partials stand in
	// as the integrity cross-check the reducer consumes via flowCount).
	w.DB.SetTap(capture.Taps{w.Pipeline, sh})
	return &worker{id: id, world: w, coord: c, cfg: cfg, cl: cl, ship: sh, faults: cfg.Faults}
}

// run processes leases until the plan is fully committed. It returns
// true when the worker retired "crashed" — an injected crash, a stall,
// a transport partition, or a completion rejected as stale — in which
// case the supervisor discards this world and starts a replacement:
// browser session and activity clocks only move forward, so a world
// that ran a never-accepted lease can no longer replay deterministic
// schedules.
func (wk *worker) run() (crashed bool) {
	for {
		l, done := wk.coord.acquire()
		if done {
			return false
		}
		wk.leaseNo++
		kind, _ := wk.faults.WorkerFault(wk.id, l.Browser, wk.leaseNo)
		if !wk.runLease(l, kind) {
			return true
		}
	}
}

// runLease executes one lease issue. It returns false when the worker
// must retire.
func (wk *worker) runLease(l *lease, fault faultsim.Kind) bool {
	w := wk.world
	// The previous lease's flows were shipped (and its analyzer partials
	// served their purpose); start this lease from a clean capture plane.
	w.DB.Reset()
	wk.ship.begin(l.Tag)
	defer wk.ship.begin(0)

	cfg := wk.cfg.Campaign
	cfg.Browsers = []string{l.Browser}
	cfg.Sites = l.Sites
	cfg.Parallelism = 1
	cfg.Checkpoint = true // the checkpoint carries the chained SessionState out
	if l.State != nil {
		// Resume the session chain from the previous accepted lease. The
		// resume path expects a stopped app (it restores state through
		// launch), so stop the browser if an earlier lease left it up.
		if b, err := w.Browser(l.Browser); err == nil && b.Running() {
			b.Stop()
		}
		cfg.Resume = &core.Checkpoint{
			Incognito: cfg.Incognito,
			Browsers:  map[string]*core.BrowserCheckpoint{l.Browser: {State: l.State}},
		}
	}
	if fault == faultsim.WorkerCrash {
		// Die mid-lease: crawl only part of the slice (its batches ship
		// and will be quarantined on reclaim), never complete, retire.
		cfg.StopAfterVisits = (len(l.Sites) + 1) / 2
	}

	// Heartbeat pump: lease liveness must not depend on how often the
	// crawl commits flows (a slow first visit mints certificates for a
	// while), so a wall-clock pump keeps the lease fresh for as long as
	// the campaign is actually running. A crash-mode lease gets no pump —
	// the worker "dies" the moment it stops shipping, and the silence is
	// what lets the coordinator reclaim it. The pump stops before the
	// stall window for the same reason.
	var pumpStop chan struct{}
	var pumpWG sync.WaitGroup
	if fault != faultsim.WorkerCrash {
		pumpStop = make(chan struct{})
		pumpWG.Add(1)
		go func() {
			defer pumpWG.Done()
			iv := wk.cfg.StaleAfter / 2
			if iv < 10*time.Millisecond {
				iv = 10 * time.Millisecond
			}
			tick := time.NewTicker(iv)
			defer tick.Stop()
			for {
				select {
				case <-pumpStop:
					return
				case <-tick.C:
					if wk.ship.doomed() == nil {
						_ = wk.cl.send(message{kind: msgHeartbeat, tag: l.Tag})
					}
				}
			}
		}()
	}

	res, err := w.RunCampaign(cfg)
	if pumpStop != nil {
		close(pumpStop)
		pumpWG.Wait()
	}
	if err != nil || fault == faultsim.WorkerCrash {
		return false
	}
	if wk.ship.doomed() != nil {
		// Partitioned from the coordinator mid-lease: some batches never
		// arrived, so completing would fail the reducer's flow-count
		// cross-check anyway. Abandon the issue and retire.
		return false
	}

	lr := &leaseResult{
		visits:    res.Visits,
		retries:   res.Retries,
		degraded:  res.Degraded,
		errors:    res.Errors,
		flowCount: wk.ship.shippedCount(),
	}
	if res.Checkpoint != nil {
		if bc := res.Checkpoint.Browsers[l.Browser]; bc != nil {
			lr.state = bc.State
		}
	}

	if fault == faultsim.WorkerStall {
		// Freeze past the lease deadline: stop reporting until the
		// coordinator has reclaimed the issue, then submit the stale
		// completion anyway — the tag dedupe must reject it. The run
		// was never accepted, so this world retires like a crash.
		<-l.reclaimed
		_ = wk.cl.send(message{kind: msgComplete, tag: l.Tag, result: lr})
		return false
	}

	if err := wk.cl.send(message{kind: msgComplete, tag: l.Tag, result: lr}); err != nil {
		return false
	}
	select {
	case <-l.reclaimed:
		// The issue was reclaimed before (or while) our completion
		// landed — it bounced off the dedupe and the lease will re-run
		// elsewhere. This world's browser state has outrun the accepted
		// chain; retire it.
		return false
	default:
	}
	return true
}

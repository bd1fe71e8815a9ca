package popsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/faultsim"
	"panoptes/internal/hostlist"
	"panoptes/internal/obs"
	"panoptes/internal/profiles"
	"panoptes/internal/vclock"
	"panoptes/internal/websim"
)

// tickDur is the event-loop granularity: all scheduling rounds to
// 100 ms virtual ticks (a uint32 tick counter then covers ~4.9 days).
const tickDur = 100 * time.Millisecond

// Config sizes a population run.
type Config struct {
	// Population is the number of simulated users. Users materialize
	// lazily as Poisson fresh arrivals over RampUp, so memory follows
	// activated users, not this number.
	Population int
	// Duration is the virtual length of the run (Run() = RunUntil(Duration)).
	Duration time.Duration
	// Seed keys every sampler; equal seeds reproduce runs byte-for-byte.
	Seed int64

	// Profiles is the browser fleet users draw from by market share
	// (nil = all 15). Sites is the rank-skewed browse target list.
	Profiles []*profiles.Profile
	Sites    []*websim.Site
	// Hostlist classifies ad/analytics resource hosts for the engine
	// ad-block profiles (nil = no classification).
	Hostlist *hostlist.List

	// DB receives the synthesized flows; its commit tap runs the
	// streaming analyses. Population runs want RetainNone retention —
	// the engine never reads flows back.
	DB    *capture.DB
	Clock *vclock.Clock
	// Faults, when non-nil, is consulted at every session admission for
	// user-churn decisions (faultsim.UserChurn). Nil injects nothing.
	Faults *faultsim.Injector
	// BrowserUIDs maps profile names to device UIDs for flow stamping
	// (missing names stamp UID 0).
	BrowserUIDs map[string]int
	// DeviceIP and Rooted feed the PII beacon attributes.
	DeviceIP string
	Rooted   bool

	// AdmitPerSec is the token-bucket session admission rate (default
	// 200/s); AdmitBurst the bucket depth (default 2×AdmitPerSec).
	// Throttled session starts wait in a FIFO backlog, not the wheel.
	AdmitPerSec float64
	AdmitBurst  int
	// Parallelism is the number of goroutines, the event loop's own
	// included, that synthesize and commit a tick's visits (default 1).
	// Each takes the next visit, synthesizes it, stamps the flow IDs
	// the loop reserved for it and commits it as one batch. Batches of
	// different visits reach the commit tap in any order, so only the
	// interleaving varies with this setting: every flow's ID and the
	// analysis results are identical at any value.
	Parallelism int
	// RampUp spreads fresh-user arrivals (default Duration).
	RampUp time.Duration
	// SampleEvery tags 1 in N visits with VisitURL and the full PII
	// query (default 64); SampleCap bounds the total tagged visits
	// (default 2048), which bounds the per-flow-entry analyzer state.
	SampleEvery int
	SampleCap   int
	// BinSeconds bins the population phone-home curve (default 10).
	BinSeconds int
	// MeanSessionGap is the base pause between a user's sessions before
	// the per-user activity multiplier applies (default 2 m).
	MeanSessionGap time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Population <= 0 {
		return c, fmt.Errorf("popsim: population must be positive")
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("popsim: duration must be positive")
	}
	if c.DB == nil || c.Clock == nil {
		return c, fmt.Errorf("popsim: DB and Clock are required")
	}
	if len(c.Sites) == 0 {
		return c, fmt.Errorf("popsim: at least one site is required")
	}
	if c.Profiles == nil {
		c.Profiles = profiles.All()
	}
	if c.AdmitPerSec <= 0 {
		c.AdmitPerSec = 200
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = int(2 * c.AdmitPerSec)
		if c.AdmitBurst < 1 {
			c.AdmitBurst = 1
		}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.RampUp <= 0 {
		c.RampUp = c.Duration
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 2048
	}
	if c.BinSeconds <= 0 {
		c.BinSeconds = 10
	}
	if c.MeanSessionGap <= 0 {
		c.MeanSessionGap = 2 * time.Minute
	}
	return c, nil
}

// sessionRef is one throttled session start waiting in the backlog.
type sessionRef struct{ user, sess uint32 }

// Stats is a snapshot of the engine's counters.
type Stats struct {
	ArrivedUsers    int // users that have materialized
	ChurnedUsers    int // users that left at a session boundary (faultsim)
	Sessions        int // admitted sessions
	Visits          int // page visits synthesized
	SampledVisits   int // visits tagged with VisitURL + full PII query
	FlowsCommitted  int64
	Throttled       int64 // session starts deferred by admission control
	EventsScheduled int64
	PeakBacklog     int
	PendingEvents   int // events filed in the wheel right now
	BacklogLen      int // session starts waiting for admission right now
}

// Engine is the population session engine. Not safe for concurrent
// use: one goroutine drives Run/RunUntil (the goroutines that
// synthesize and commit visits are internal).
type Engine struct {
	cfg   Config
	model *Model
	curve *analysis.Fig5Analyzer
	wheel *wheel

	backlog     []sessionRef
	backlogHead int
	tokens      float64

	nextFresh    uint32  // next user to materialize
	nextArrivalS float64 // their arrival time, seconds since start

	start    time.Time
	idBase   int64
	idSet    bool
	visitSeq uint64

	stats Stats

	gActive    *obs.Gauge
	cSessions  *obs.Counter
	cEvents    *obs.Counter
	cThrottled *obs.Counter

	buf  []event
	jobs []synthJob
	// ids[i] is job i's first flow ID, reserved on the loop goroutine;
	// ids[len(jobs)] is one past the tick's last.
	ids []int64
}

// New builds an engine. The run window starts at the clock's current
// instant; the curve analyzer (Curve) is ready to be registered on the
// analysis pipeline before the first RunUntil call.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	obs.Default.Help("popsim_active_users", "Simulated users materialized and not churned.")
	obs.Default.Help("popsim_sessions_total", "Sessions admitted by the population engine.")
	obs.Default.Help("popsim_events_scheduled_total", "Events filed into the population timing wheel.")
	obs.Default.Help("popsim_admission_throttled_total", "Session starts deferred to the admission backlog.")
	e := &Engine{
		cfg:        cfg,
		model:      newModel(&cfg),
		wheel:      newWheel(),
		start:      cfg.Clock.Now(),
		gActive:    obs.Default.Gauge("popsim_active_users"),
		cSessions:  obs.Default.Counter("popsim_sessions_total"),
		cEvents:    obs.Default.Counter("popsim_events_scheduled_total"),
		cThrottled: obs.Default.Counter("popsim_admission_throttled_total"),
	}
	e.curve = analysis.NewFig5Analyzer(profileFleet(cfg.Profiles), e.start, cfg.Duration, cfg.BinSeconds)
	e.nextArrivalS = e.model.arrivalGap(0)
	return e, nil
}

// Curve returns the population's Figure 5 phone-home timeline: native
// requests binned by virtual time per browser over the run window, for
// registration on the commit-tap pipeline.
func (e *Engine) Curve() *analysis.Fig5Analyzer { return e.curve }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.PendingEvents = e.wheel.Pending()
	s.BacklogLen = len(e.backlog) - e.backlogHead
	return s
}

// FlowIDBase is the global flow ID preceding the engine's first
// committed flow (0 before anything committed). Subtracting it maps
// the run's flow IDs onto a run-relative sequence, which is how the
// determinism suite compares runs that share the process-global ID
// allocator.
func (e *Engine) FlowIDBase() int64 { return e.idBase }

// Run simulates the full configured duration.
func (e *Engine) Run() error { return e.RunUntil(e.cfg.Duration) }

// RunUntil advances the simulation to the given elapsed virtual time.
// It is incremental: successive calls with growing targets resume
// exactly where the previous call stopped, and a paused-and-resumed
// run commits the same flow stream as a straight one. The engine holds
// no flow reference once it returns.
func (e *Engine) RunUntil(elapsed time.Duration) error {
	target := uint32(elapsed / tickDur)
	for e.wheel.cursor < target {
		e.step()
	}
	return nil
}

// step processes one virtual tick: refill the admission bucket, drain
// the backlog, materialize fresh arrivals, fire due events, then
// synthesize and commit the tick's visits in deterministic job order.
func (e *Engine) step() {
	t := e.wheel.cursor
	now := e.start.Add(time.Duration(t) * tickDur)
	e.cfg.Clock.AdvanceTo(now)

	e.tokens += e.cfg.AdmitPerSec * tickDur.Seconds()
	if max := float64(e.cfg.AdmitBurst); e.tokens > max {
		e.tokens = max
	}
	e.jobs = e.jobs[:0]

	// Backlogged session starts go first: admission is FIFO-fair, and a
	// deferred session never reshuffles the wheel (no thundering herd of
	// rescheduled events when the bucket refills).
	for e.tokens >= 1 && e.backlogHead < len(e.backlog) {
		ref := e.backlog[e.backlogHead]
		e.backlogHead++
		e.admitSession(ref.user, ref.sess, t, now)
	}
	if e.backlogHead > 4096 && e.backlogHead*2 > len(e.backlog) {
		n := copy(e.backlog, e.backlog[e.backlogHead:])
		e.backlog = e.backlog[:n]
		e.backlogHead = 0
	}

	// Fresh arrivals are a lazy Poisson stream: one pending arrival
	// time, advanced as users materialize, so a million-user population
	// costs no upfront event flood.
	tickEndS := float64(t+1) * tickDur.Seconds()
	for e.nextFresh < uint32(e.cfg.Population) && e.nextArrivalS < tickEndS {
		u := e.nextFresh
		e.nextFresh++
		e.nextArrivalS += e.model.arrivalGap(e.nextFresh)
		e.stats.ArrivedUsers++
		e.gActive.Inc()
		e.startSession(u, 0, t, now)
	}

	// Due events. take advances the cursor, so successors scheduled
	// below land at tick t+1 or later, never back into this tick.
	e.buf = e.wheel.take(e.buf[:0])
	for _, ev := range e.buf {
		if ev.visit == 0 {
			e.startSession(ev.user, ev.sess, t, now)
		} else {
			e.processVisit(ev.user, ev.sess, ev.visit, t, now)
		}
	}

	e.flush()
}

// startSession runs a session start through admission control.
func (e *Engine) startSession(user, sess uint32, t uint32, now time.Time) {
	if e.tokens < 1 {
		e.backlog = append(e.backlog, sessionRef{user: user, sess: sess})
		e.stats.Throttled++
		e.cThrottled.Inc()
		if n := len(e.backlog) - e.backlogHead; n > e.stats.PeakBacklog {
			e.stats.PeakBacklog = n
		}
		return
	}
	e.admitSession(user, sess, t, now)
}

// admitSession consumes a token and starts the session — unless the
// fault plan churns the user, in which case they leave the population
// for good (and the token stays in the bucket).
func (e *Engine) admitSession(user, sess uint32, t uint32, now time.Time) {
	pIdx := e.model.BrowserIdx(user)
	if e.cfg.Faults.UserChurnFault(e.model.profiles[pIdx].p.Name, int(user), int(sess)) {
		e.stats.ChurnedUsers++
		e.gActive.Dec()
		return
	}
	e.tokens--
	e.stats.Sessions++
	e.cSessions.Inc()
	e.processVisit(user, sess, 0, t, now)
}

// processVisit queues the visit's synthesis job and schedules the
// session's next step: another visit after the dwell, or the next
// session start after the inter-session gap.
func (e *Engine) processVisit(user, sess, visit uint32, t uint32, now time.Time) {
	e.visitSeq++
	sampled := false
	if (e.visitSeq-1)%uint64(e.cfg.SampleEvery) == 0 && e.stats.SampledVisits < e.cfg.SampleCap {
		sampled = true
		e.stats.SampledVisits++
	}
	e.stats.Visits++
	e.jobs = append(e.jobs, synthJob{
		user: user, sess: sess, visit: visit,
		pIdx:    e.model.BrowserIdx(user),
		siteIdx: e.model.SiteIdx(user, sess, visit),
		when:    now, sampled: sampled,
	})
	if visit+1 < uint32(e.model.SessionVisits(user, sess)) {
		e.schedule(event{tick: t + ticksOf(e.model.Dwell(user, sess, visit)),
			user: user, sess: sess, visit: visit + 1})
	} else {
		e.schedule(event{tick: t + ticksOf(e.model.SessionGap(user, sess+1)),
			user: user, sess: sess + 1, visit: 0})
	}
}

func (e *Engine) schedule(ev event) {
	e.wheel.schedule(ev)
	e.stats.EventsScheduled++
	e.cEvents.Inc()
}

// ticksOf rounds a duration to ticks, minimum one (a successor may
// never fire in its own tick).
func ticksOf(d time.Duration) uint32 {
	n := uint32((d + tickDur/2) / tickDur)
	if n < 1 {
		n = 1
	}
	return n
}

// flush synthesizes and commits the tick's queued visits. The loop
// reserves every flow ID of the tick up front, in job order; then
// Parallelism goroutines, the loop's own included, each take the next
// job, synthesize it, stamp its reserved IDs and commit it as one
// batch, so the flows are folded while they are still in cache. A
// worker then reclaims the engine's reference on the job's flows into
// its own free list, which its next visit draws from: a record nobody
// else holds is reused on the goroutine that filled it, without the
// pool's round trip, and a record a store or sink still holds is never
// reused. At the end of the tick each worker releases its spare
// records to the pool, so the engine holds no flow between ticks.
func (e *Engine) flush() {
	jobs := e.jobs
	if len(jobs) == 0 {
		return
	}
	e.ids = append(e.ids[:0], 0)
	for _, j := range jobs {
		e.ids = append(e.ids, e.ids[len(e.ids)-1]+int64(e.model.flowCount(j)))
	}
	total := e.ids[len(jobs)]
	first := capture.ReserveFlowIDs(int(total))
	if !e.idSet {
		e.idBase, e.idSet = first-1, true
	}
	for i := range e.ids {
		e.ids[i] += first
	}
	var next atomic.Int64
	work := func() {
		var fs []*capture.Flow
		var free freeList
		for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
			fs = e.model.synthesize(jobs[i], fs, &free)
			if want := e.ids[i+1] - e.ids[i]; int64(len(fs)) != want {
				panic(fmt.Sprintf("popsim: visit synthesized %d flows, %d IDs reserved", len(fs), want))
			}
			for k, f := range fs {
				f.ID = e.ids[i] + int64(k)
			}
			e.cfg.DB.CommitAll(fs)
			for k, f := range fs {
				if f = f.Reclaim(); f != nil {
					free = append(free, f)
				}
				fs[k] = nil
			}
			fs = fs[:0]
		}
		// Release resets a spare a second time (Reclaim already did):
		// at most one visit's records per worker per tick, so a second
		// record-reset entry point is not worth its API.
		for _, f := range free {
			f.Release()
		}
	}
	var wg sync.WaitGroup
	for w := min(e.cfg.Parallelism, len(jobs)) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	e.stats.FlowsCommitted += total
}

// Package sink is the export plane of the measurement stack: the egress
// path that moves committed flows and end-of-campaign analyzer deltas
// out of the process into durable backends, without unbounding memory
// and without ever leaking a quarantined attempt.
//
// An Exporter implements capture.Tap and rides the commit stream next
// to the streaming analysis pipeline. The capture DB is the attempt
// quarantine: it hands the tap an attempt's flows only once the attempt
// seals, in capture order, and drops a retracted attempt's flows before
// any tap sees them. So the export stream carries exactly the committed
// history the analyses saw, with no quarantine of its own.
//
// Events accumulate into batches flushed on two triggers — batch
// size and virtual-clock age — and each registered Publisher gets its
// own bounded in-flight queue, dispatcher goroutine and circuit breaker
// (internal/breaker, the PR 3 machinery hoisted out of core). A full
// queue either sheds the batch (PolicyDrop, counted in obs) or
// backpressures the committing goroutine (PolicyBlock); either way
// resident export memory is bounded by batch × queue × sinks. One slow
// or failing backend degrades alone: its breaker opens, its queue
// drains by dropping, and the other sinks keep publishing.
package sink

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"panoptes/internal/breaker"
	"panoptes/internal/bytepool"
	"panoptes/internal/capture"
	"panoptes/internal/obs"
)

func init() {
	obs.Default.Help("sink_published_total", "Events successfully published to each export sink.")
	obs.Default.Help("sink_batch_flush_total", "Export batches flushed, by trigger (size, age, manual, final).")
	obs.Default.Help("sink_queue_depth", "Export batches in flight (queued or publishing) per sink.")
	obs.Default.Help("sink_dropped_total", "Events dropped before reaching a sink backend, by sink and reason (queue_full, breaker_open, publish_error).")
	obs.Default.Help("sink_breaker_open_total", "Per-sink circuit-breaker open transitions.")
	obs.Default.Help("sink_deduped_total", "Events skipped because a resumed campaign had already exported them before the checkpoint.")
}

// Envelope is one export event: a committed flow or an analyzer delta.
// Seq is the exporter-local export sequence — monotonically increasing
// in enqueue order, so downstream consumers can re-establish commit
// order across rotated files or bulk responses.
type Envelope struct {
	Seq      uint64          `json:"seq"`
	Type     string          `json:"type"` // "flow" or "delta"
	Flow     *capture.Flow   `json:"flow,omitempty"`
	Analyzer string          `json:"analyzer,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
}

// Event types.
const (
	TypeFlow  = "flow"
	TypeDelta = "delta"
)

// Publisher is one export backend. Publish receives a sealed batch in
// export order and returns nil only when the whole batch is durably
// accepted; transient-failure retries are the publisher's own business
// (the HTTP sink retries with backoff), the exporter's breaker sees
// only the final verdict. Publish is called from a single dispatcher
// goroutine per registered sink.
type Publisher interface {
	Name() string
	Publish(batch []Envelope) error
	Close() error
}

// Policy says what a full in-flight queue does to the producer.
type Policy string

// Queue policies for Config.Policy and the -sink-policy flag.
const (
	PolicyDrop  Policy = "drop"  // shed the batch, count it, keep committing
	PolicyBlock Policy = "block" // backpressure the committing goroutine
)

// ParsePolicy maps the -sink-policy flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyDrop, PolicyBlock:
		return Policy(s), nil
	case "":
		return PolicyDrop, nil
	}
	return "", fmt.Errorf("sink: unknown queue policy %q (want drop or block)", s)
}

// Config sizes an Exporter. The zero value takes every default.
type Config struct {
	// BatchSize flushes a batch once it holds this many events
	// (default 64).
	BatchSize int
	// MaxAge flushes a non-empty batch whose oldest event is at least
	// this old on the exporter's clock (default 2s). The age trigger is
	// evaluated when events arrive, so it needs no timer goroutine and
	// stays deterministic under the virtual clock.
	MaxAge time.Duration
	// Queue bounds the in-flight batches per sink (default 8). Together
	// with BatchSize it caps export memory per sink.
	Queue int
	// Policy is what a full queue does (default PolicyDrop).
	Policy Policy
	// BreakerThreshold consecutive failed publishes open a sink's
	// breaker for BreakerCooldown (defaults 3 and 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Now is the exporter's clock: the virtual clock inside the
	// testbed, time.Now in standalone binaries (the default).
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 2 * time.Second
	}
	if c.Queue <= 0 {
		c.Queue = 8
	}
	if c.Policy == "" {
		c.Policy = PolicyDrop
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// sinkState is one registered backend: its queue, dispatcher-side
// accounting and breaker. Local atomic-free counters (guarded by mu)
// back Stats; the obs series back /metrics and the campaign summary.
type sinkState struct {
	pub Publisher
	br  *breaker.Breaker
	ch  chan []Envelope

	mu        sync.Mutex
	cond      *sync.Cond
	inflight  int // batches admitted and not yet done (queued, blocked or publishing)
	queued    int // batches admitted and not yet popped by the dispatcher
	peak      int
	published int64
	dropped   int64
	opens     int64

	obsPublished   *obs.Counter
	obsDepth       *obs.Gauge
	obsOpens       *obs.Counter
	obsDropQueue   *obs.Counter
	obsDropBreaker *obs.Counter
	obsDropError   *obs.Counter
}

// SinkStats is one sink's lifetime accounting, for tests and benches
// (the obs registry is process-global and double-counts across worlds).
type SinkStats struct {
	Name         string
	Published    int64 // events durably accepted by the backend
	Dropped      int64 // events shed (queue full, breaker open, publish error)
	BreakerOpens int64
	PeakQueue    int // high-water mark of in-flight batches
}

// Exporter receives the commit stream, batches its events and fans
// batches out to every registered sink. It implements capture.Tap.
// Observe is safe for concurrent use from the committing goroutines.
type Exporter struct {
	cfg Config

	mu         sync.Mutex
	batch      []Envelope
	batchStart time.Time
	seq        uint64
	seen       map[int64]bool // flow IDs exported before a resume boundary
	closed     bool

	// faultHook has its own lock: dispatchers read it while a
	// block-policy producer may hold e.mu waiting for queue room, so
	// guarding it with e.mu would deadlock.
	hookMu    sync.Mutex
	faultHook func(sink string) error

	sinks   []*sinkState
	wg      sync.WaitGroup
	flushes map[string]*obs.Counter
	deduped *obs.Counter
}

// NewExporter builds an exporter over the given sinks and starts one
// dispatcher goroutine per sink. Close releases them.
func NewExporter(cfg Config, pubs ...Publisher) *Exporter {
	cfg.defaults()
	e := &Exporter{
		cfg:     cfg,
		deduped: obs.Default.Counter("sink_deduped_total"),
		flushes: map[string]*obs.Counter{
			"size":   obs.Default.Counter("sink_batch_flush_total", "trigger", "size"),
			"age":    obs.Default.Counter("sink_batch_flush_total", "trigger", "age"),
			"manual": obs.Default.Counter("sink_batch_flush_total", "trigger", "manual"),
			"final":  obs.Default.Counter("sink_batch_flush_total", "trigger", "final"),
		},
	}
	for _, p := range pubs {
		s := &sinkState{
			pub:            p,
			br:             breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown),
			ch:             make(chan []Envelope, cfg.Queue),
			obsPublished:   obs.Default.Counter("sink_published_total", "sink", p.Name()),
			obsDepth:       obs.Default.Gauge("sink_queue_depth", "sink", p.Name()),
			obsOpens:       obs.Default.Counter("sink_breaker_open_total", "sink", p.Name()),
			obsDropQueue:   obs.Default.Counter("sink_dropped_total", "sink", p.Name(), "reason", "queue_full"),
			obsDropBreaker: obs.Default.Counter("sink_dropped_total", "sink", p.Name(), "reason", "breaker_open"),
			obsDropError:   obs.Default.Counter("sink_dropped_total", "sink", p.Name(), "reason", "publish_error"),
		}
		s.cond = sync.NewCond(&s.mu)
		e.sinks = append(e.sinks, s)
		e.wg.Add(1)
		go e.run(s)
	}
	return e
}

// SetFaultHook installs an injectable publish fault consulted before
// every batch publish (faultsim.Injector.SinkFault). A non-nil error
// fails the batch exactly as a backend error would — counted, fed to
// the sink's breaker — without the backend seeing it. Pass nil to
// uninstall. Install before traffic flows.
func (e *Exporter) SetFaultHook(h func(sink string) error) {
	e.hookMu.Lock()
	e.faultHook = h
	e.hookMu.Unlock()
}

// SeedExported marks flow IDs as already exported by the process that
// wrote a checkpoint: when the campaign replays the checkpoint's flows
// through the commit tap on resume, the exporter skips them instead of
// double-publishing. Call before the resumed campaign re-adds flows.
func (e *Exporter) SeedExported(ids []int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil {
		e.seen = make(map[int64]bool, len(ids))
	}
	for _, id := range ids {
		e.seen[id] = true
	}
}

// Observe receives one committed flow from the capture store and
// feeds it to the batcher.
func (e *Exporter) Observe(f *capture.Flow) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if e.seen != nil && e.seen[f.ID] {
		e.mu.Unlock()
		e.deduped.Inc()
		return
	}
	// The exporter's reference, held until every sink dispatcher is
	// done with the batch.
	f.Ref()
	e.enqueueLocked(Envelope{Type: TypeFlow, Flow: f})
	e.mu.Unlock()
}

// Seal implements capture.Tap. The sealed attempt's flows have already
// arrived through Observe; there is nothing left to do.
func (e *Exporter) Seal(attempt int64) {}

// Retract implements capture.Tap. The capture DB dropped the attempt's
// flows before any tap saw them, so none can reach a sink.
func (e *Exporter) Retract(attempt int64) {}

// PublishDeltas enqueues one delta envelope per analyzer result, in
// analyzer-name order (deterministic export streams). The campaign
// runner calls it once at end of campaign with the streaming pipeline's
// finalized results.
func (e *Exporter) PublishDeltas(results map[string]any) error {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		payload, err := json.Marshal(results[name])
		if err != nil {
			return fmt.Errorf("sink: marshal %s delta: %w", name, err)
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return errors.New("sink: exporter closed")
		}
		e.enqueueLocked(Envelope{Type: TypeDelta, Analyzer: name, Payload: payload})
		e.mu.Unlock()
	}
	return nil
}

// enqueueLocked stamps the export sequence, applies the age trigger,
// appends, and applies the size trigger. Callers hold e.mu.
func (e *Exporter) enqueueLocked(env Envelope) {
	now := e.cfg.Now()
	if len(e.batch) > 0 && now.Sub(e.batchStart) >= e.cfg.MaxAge {
		e.flushLocked("age")
	}
	if len(e.batch) == 0 {
		e.batchStart = now
	}
	e.seq++
	env.Seq = e.seq
	e.batch = append(e.batch, env)
	if len(e.batch) >= e.cfg.BatchSize {
		e.flushLocked("size")
	}
}

// flushLocked hands the current batch to every sink's queue. With
// PolicyBlock a full queue blocks here — the committing goroutine
// stalls, which is exactly the backpressure the policy promises. With
// PolicyDrop the batch is shed for that sink only and counted.
func (e *Exporter) flushLocked(trigger string) {
	if len(e.batch) == 0 {
		return
	}
	batch := e.batch
	e.batch = nil
	e.flushes[trigger].Inc()
	// The batch slice is shared by every sink's queue. Multiply the one
	// flow reference taken at Observe out to one per sink — each sink's
	// terminal path (delivered, shed on a full queue, dropped by the
	// breaker or a publish error) releases exactly its own share.
	for i := 1; i < len(e.sinks); i++ {
		for j := range batch {
			batch[j].Flow.Ref()
		}
	}
	if len(e.sinks) == 0 {
		releaseFlows(batch)
		return
	}
	for _, s := range e.sinks {
		switch e.cfg.Policy {
		case PolicyBlock:
			s.admit()
			s.ch <- batch
		default:
			if s.tryAdmit() {
				s.ch <- batch
			} else {
				s.drop(len(batch), s.obsDropQueue)
				releaseFlows(batch)
			}
		}
	}
}

// releaseFlows drops one reference per flow event in a batch (delta
// envelopes carry no flow; Release is nil-safe).
func releaseFlows(batch []Envelope) {
	for i := range batch {
		batch[i].Flow.Release()
	}
}

// Flush pushes the current partial batch out (trigger "manual").
func (e *Exporter) Flush() {
	e.mu.Lock()
	e.flushLocked("manual")
	e.mu.Unlock()
}

// Drain flushes the current batch and blocks until every sink's queue
// is empty and no publish is in flight. Call it before reading a test
// sink or printing the end-of-campaign summary.
func (e *Exporter) Drain() {
	e.Flush()
	for _, s := range e.sinks {
		s.mu.Lock()
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}
}

// Close flushes the remainder (trigger "final"), drains the queues,
// stops the dispatchers and closes every publisher. Further events are
// discarded. Safe to call more than once.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.flushLocked("final")
	e.closed = true
	e.mu.Unlock()

	for _, s := range e.sinks {
		close(s.ch)
	}
	e.wg.Wait()
	var firstErr error
	for _, s := range e.sinks {
		if err := s.pub.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sink: close %s: %w", s.pub.Name(), err)
		}
	}
	return firstErr
}

// Stats returns per-sink lifetime accounting in registration order.
func (e *Exporter) Stats() []SinkStats {
	out := make([]SinkStats, len(e.sinks))
	for i, s := range e.sinks {
		s.mu.Lock()
		out[i] = SinkStats{
			Name:         s.pub.Name(),
			Published:    s.published,
			Dropped:      s.dropped,
			BreakerOpens: s.opens,
			PeakQueue:    s.peak,
		}
		s.mu.Unlock()
	}
	return out
}

// run is one sink's dispatcher: it owns the only receive side of the
// queue, so batches publish in export order per sink.
func (e *Exporter) run(s *sinkState) {
	defer e.wg.Done()
	for batch := range s.ch {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		e.deliver(s, batch)
	}
}

// deliver publishes one batch through the sink's breaker and the
// injectable fault hook. A failed publish (the publisher has already
// done its own retries) loses the batch — the bounded-memory contract
// beats at-least-once here; re-export is a resume/replay concern.
func (e *Exporter) deliver(s *sinkState, batch []Envelope) {
	defer s.done()
	defer releaseFlows(batch) // this sink's share, whatever the outcome
	if !s.br.Allow(e.cfg.Now()) {
		s.drop(len(batch), s.obsDropBreaker)
		return
	}
	e.hookMu.Lock()
	hook := e.faultHook
	e.hookMu.Unlock()
	var err error
	if hook != nil {
		err = hook(s.pub.Name())
	}
	if err == nil {
		err = s.pub.Publish(batch)
	}
	if s.br.Record(err == nil, e.cfg.Now()) {
		s.obsOpens.Inc()
		s.mu.Lock()
		s.opens++
		s.mu.Unlock()
	}
	if err != nil {
		s.drop(len(batch), s.obsDropError)
		return
	}
	s.mu.Lock()
	s.published += int64(len(batch))
	s.mu.Unlock()
	s.obsPublished.Add(int64(len(batch)))
}

// admit reserves an in-flight slot unconditionally (block policy); the
// subsequent channel send may block, which is the policy's promise.
func (s *sinkState) admit() {
	s.mu.Lock()
	s.inflight++
	s.queued++
	if s.inflight > s.peak {
		s.peak = s.inflight
	}
	s.mu.Unlock()
	s.obsDepth.Inc()
}

// tryAdmit reserves a slot only when the channel has room (drop
// policy). queued tracks channel occupancy (admitted minus popped) and
// only the single producer under e.mu increments it, so admitting while
// queued < cap guarantees the send below never blocks.
func (s *sinkState) tryAdmit() bool {
	s.mu.Lock()
	if s.queued >= cap(s.ch) {
		s.mu.Unlock()
		return false
	}
	s.inflight++
	s.queued++
	if s.inflight > s.peak {
		s.peak = s.inflight
	}
	s.mu.Unlock()
	s.obsDepth.Inc()
	return true
}

// done releases an in-flight slot after a batch is handled.
func (s *sinkState) done() {
	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
	s.mu.Unlock()
	s.obsDepth.Dec()
}

// drop counts n shed events against the sink.
func (s *sinkState) drop(n int, c *obs.Counter) {
	s.mu.Lock()
	s.dropped += int64(n)
	s.mu.Unlock()
	c.Add(int64(n))
}

// encodePool recycles the NDJSON encode buffers the HTTP and file sinks
// serialise batches into — per-batch encoding was the exporter's
// dominant allocation (one growth chain plus one line buffer per event).
var encodePool = bytepool.New("sink_encode", 4<<10, 64<<10, 1<<20)

// AppendNDJSON renders a batch as newline-delimited JSON into buf — the
// wire format shared by the HTTP bulk sink and the file sink.
// json.Encoder terminates each value with '\n', which is exactly the
// NDJSON framing.
func AppendNDJSON(buf *bytes.Buffer, batch []Envelope) error {
	enc := json.NewEncoder(buf)
	for i := range batch {
		if err := enc.Encode(&batch[i]); err != nil {
			return fmt.Errorf("sink: encode event seq %d: %w", batch[i].Seq, err)
		}
	}
	return nil
}

// EncodeNDJSON renders a batch as newline-delimited JSON in a fresh
// allocation. Hot paths use AppendNDJSON with a pooled buffer instead.
func EncodeNDJSON(batch []Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := AppendNDJSON(&buf, batch); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Flow recycling. The MITM data plane builds one Flow per intercepted
// exchange; at campaign rates that is the dominant steady-state
// allocation. Flows acquired from the pool are reference-counted so
// every retainer along the commit path (producer, the DB's commit gate,
// the store, export batches, memory sinks) pins the record
// independently, and the struct — with its Headers map and Body buffer —
// returns to the pool only when the last holder releases it. A producer
// that reuses its own records (the population engine's workers) takes
// its last reference back with Reclaim instead, and gets the reset
// record without the pool's round trip.
//
// Ref/Release are nil-safe no-ops for flows built by hand (test
// literals, JSONL round-trips): only AcquireFlow marks a flow pooled,
// so untracked flows keep ordinary GC lifetimes.
package capture

import (
	"sync"
	"sync/atomic"
)

// flowPool recycles Flow structs together with their Headers map and
// Body buffer capacity.
var flowPool = sync.Pool{New: func() any { return new(Flow) }}

// AcquireFlow returns a recycled (or new) Flow holding one reference,
// owned by the caller. The Headers map and Body buffer may be non-nil
// with stale capacity; all fields are otherwise zero.
func AcquireFlow() *Flow {
	f := flowPool.Get().(*Flow)
	f.pooled = true
	atomic.StoreInt32(&f.refs, 1)
	return f
}

// Ref pins a pooled flow for an additional holder. No-op on nil or
// unpooled flows.
func (f *Flow) Ref() {
	if f == nil || !f.pooled {
		return
	}
	atomic.AddInt32(&f.refs, 1)
}

// Release drops one reference; the last release recycles the flow. The
// caller must not touch the flow afterwards. No-op on nil or unpooled
// flows.
func (f *Flow) Release() {
	if f.dropLast() {
		f.resetForReuse()
		flowPool.Put(f)
	}
}

// Reclaim drops the caller's reference, as Release does. If it was the
// last, Reclaim returns the flow reset, holding one reference, as
// AcquireFlow would: a producer that reuses its own records skips the
// pool's round trip. Otherwise, and on nil or unpooled flows, it returns
// nil, and the caller must not touch the flow afterwards.
func (f *Flow) Reclaim() *Flow {
	if !f.dropLast() {
		return nil
	}
	f.resetForReuse()
	atomic.StoreInt32(&f.refs, 1)
	return f
}

// dropLast drops one reference of a pooled flow and reports whether it
// was the last. A flow dropped more times than referenced panics: a
// pooled record rests at zero references and stays pooled, so a second
// Release of the same reference cannot put it in the pool twice.
func (f *Flow) dropLast() bool {
	if f == nil || !f.pooled {
		return false
	}
	switch n := atomic.AddInt32(&f.refs, -1); {
	case n == 0:
		return true
	case n < 0:
		panic("capture: Flow released more times than referenced")
	}
	return false
}

// resetForReuse zeroes the flow while keeping its Headers map and Body
// capacity for the next exchange. It stays pooled, at zero references.
func (f *Flow) resetForReuse() {
	hdr, body := f.Headers, f.Body[:0]
	if len(hdr) > 0 {
		clear(hdr)
	}
	*f = Flow{} // cleared in place; a literal with fields is built aside and copied
	f.Headers, f.Body, f.pooled = hdr, body, true
}

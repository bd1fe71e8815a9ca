// Flow recycling. The MITM data plane builds one Flow per intercepted
// exchange; at campaign rates that is the dominant steady-state
// allocation. Flows acquired from the pool are reference-counted so
// every retainer along the commit path (producer, the DB's commit gate,
// the store, export batches, memory sinks) pins the record
// independently, and the struct — with its Headers map and Body buffer —
// returns to the pool only when the last holder releases it.
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
	if f == nil || !f.pooled {
		return
	}
	switch n := atomic.AddInt32(&f.refs, -1); {
	case n == 0:
		f.resetForReuse()
		flowPool.Put(f)
	case n < 0:
		panic("capture: Flow released more times than referenced")
	}
}

// resetForReuse zeroes the flow while keeping its Headers map and Body
// capacity for the next exchange.
func (f *Flow) resetForReuse() {
	hdr := f.Headers
	for k := range hdr {
		delete(hdr, k)
	}
	*f = Flow{Headers: hdr, Body: f.Body[:0]}
}

package capture

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireFlowStartsClean(t *testing.T) {
	f := AcquireFlow()
	f.ID = 7
	f.Host = "a.example"
	f.Headers = map[string][]string{"X-Id": {"abc"}}
	f.Body = append(f.Body, "payload"...)
	f.Time = time.Unix(10, 0)
	f.Release()

	g := AcquireFlow()
	defer g.Release()
	if g.ID != 0 || g.Host != "" || !g.Time.IsZero() || len(g.Body) != 0 {
		t.Fatalf("recycled flow not reset: %+v", g)
	}
	if len(g.Headers) != 0 {
		t.Fatalf("recycled flow kept header keys: %v", g.Headers)
	}
}

func TestReleaseRecyclesOnLastHolder(t *testing.T) {
	f := AcquireFlow()
	f.Host = "pinned.example"
	f.Ref() // second holder

	f.Release() // first holder gone; the flow must stay intact
	if f.Host != "pinned.example" {
		t.Fatal("flow reset while still referenced")
	}
	f.Release() // last holder: recycled now
}

func TestOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	// Reaching a negative count through the public API needs two racing
	// releases; force the precondition directly instead.
	f := AcquireFlow()
	atomic.StoreInt32(&f.refs, 0)
	f.Release()
}

func TestUnpooledFlowsIgnoreRefcounting(t *testing.T) {
	f := &Flow{ID: 1, Host: "literal.example"}
	f.Ref()
	f.Release()
	f.Release() // extra releases never panic on hand-built flows
	if f.Host != "literal.example" {
		t.Fatal("unpooled flow must not be reset")
	}
	var nilFlow *Flow
	nilFlow.Ref()
	nilFlow.Release()
}

func TestStoreReleasesOnRemoveAndReset(t *testing.T) {
	// A recycled flow is zeroed in place before it returns to the pool,
	// so the test can watch the last release happen.
	db := NewDB()
	f := AcquireFlow()
	f.ID, f.Attempt = 1, 3
	db.Native.Add(f)
	f.Release() // producer done; the gate still holds its ref
	if f.ID != 1 {
		t.Fatal("parked flow recycled while the gate holds it")
	}
	db.RemoveAttempt(3)
	if f.ID != 0 {
		t.Fatalf("flow not recycled after RemoveAttempt: ID=%d", f.ID)
	}

	for _, attempt := range []int64{0, 4} {
		h := AcquireFlow()
		h.ID, h.Attempt = 2, attempt
		db.Native.Add(h)
		h.Release()
		db.Reset() // drops resident (attempt 0) and parked (attempt 4) flows
		if h.ID != 0 {
			t.Fatalf("attempt-%d flow not recycled after Reset: ID=%d", attempt, h.ID)
		}
	}
}

func TestReclaimReturnsRecordToLastHolder(t *testing.T) {
	f := AcquireFlow()
	f.ID, f.Host, f.Browser = 9, "last.example", "Chrome"
	f.Headers = map[string][]string{"X-Id": {"abc"}}
	f.Body = append(f.Body[:0], "payload-payload"...)
	bodyCap := cap(f.Body)
	if g := f.Reclaim(); g != f {
		t.Fatalf("last holder's Reclaim = %p, want the flow itself %p", g, f)
	}
	if f.ID != 0 || f.Host != "" || f.Browser != "" || len(f.Body) != 0 || len(f.Headers) != 0 {
		t.Fatalf("reclaimed flow not reset: %+v", f)
	}
	if cap(f.Body) != bodyCap || f.Headers == nil {
		t.Fatalf("reclaimed flow lost its buffers: body cap %d (was %d), headers %v", cap(f.Body), bodyCap, f.Headers)
	}
	if n := atomic.LoadInt32(&f.refs); n != 1 || !f.pooled {
		t.Fatalf("reclaimed flow holds %d references (pooled %v), want 1 like AcquireFlow", n, f.pooled)
	}
	f.Release() // the reclaimed reference is an ordinary one
}

func TestReclaimLeavesSharedFlowIntact(t *testing.T) {
	f := AcquireFlow()
	f.ID, f.Host = 4, "shared.example"
	f.Ref() // a store keeps it
	if g := f.Reclaim(); g != nil {
		t.Fatal("Reclaim returned a flow another holder still references")
	}
	if f.ID != 4 || f.Host != "shared.example" {
		t.Fatalf("shared flow reset by a holder's Reclaim: %+v", f)
	}
	if g := f.Reclaim(); g != f {
		t.Fatal("the remaining holder's Reclaim did not return the flow")
	}
	f.Release()
}

func TestReclaimIgnoresUnpooledFlows(t *testing.T) {
	f := &Flow{ID: 1, Host: "literal.example"}
	var nilFlow *Flow
	if f.Reclaim() != nil || nilFlow.Reclaim() != nil {
		t.Fatal("Reclaim returned an unpooled or nil flow")
	}
	if f.Host != "literal.example" {
		t.Fatal("unpooled flow must not be reset")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of the last reference must panic")
		}
	}()
	f := AcquireFlow()
	f.Release()
	f.Release()
}

func TestReclaimAfterReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reclaiming more times than referenced must panic")
		}
	}()
	f := AcquireFlow()
	f.Release()
	f.Reclaim()
}

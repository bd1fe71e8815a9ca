package capture

import (
	"bytes"
	"sync"
	"testing"
)

// recordingTap logs tap callbacks for assertions.
type recordingTap struct {
	mu       sync.Mutex
	observed []int64 // flow IDs
	retracts []int64
	seals    []int64
}

func (t *recordingTap) Observe(f *Flow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observed = append(t.observed, f.ID)
}

func (t *recordingTap) Retract(attempt int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retracts = append(t.retracts, attempt)
}

func (t *recordingTap) Seal(attempt int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seals = append(t.seals, attempt)
}

func TestCommitTapAndOriginStamp(t *testing.T) {
	db := NewDB()
	tap := &recordingTap{}
	db.SetTap(tap)

	fe := &Flow{ID: 1}
	fn := &Flow{ID: 2, Attempt: 9}
	db.Engine.Add(fe)
	db.Native.Add(fn)
	if fe.Origin != OriginEngine || fn.Origin != OriginNative {
		t.Fatalf("origins not stamped: %q %q", fe.Origin, fn.Origin)
	}
	// The tagged flow waits in the gate, and its removal keeps it from
	// the tap for good.
	if len(tap.observed) != 1 || tap.observed[0] != 1 {
		t.Fatalf("tap observed %v, want only the untagged flow", tap.observed)
	}

	if n := db.RemoveAttempt(9); n != 1 {
		t.Fatalf("RemoveAttempt removed %d, want 1", n)
	}
	db.SealAttempt(10)
	if len(tap.retracts) != 1 || tap.retracts[0] != 9 {
		t.Fatalf("tap retracts = %v, want [9]", tap.retracts)
	}
	if len(tap.seals) != 1 || tap.seals[0] != 10 {
		t.Fatalf("tap seals = %v, want [10]", tap.seals)
	}
	if len(tap.observed) != 1 {
		t.Fatalf("tap observed %v after removal, want only the untagged flow", tap.observed)
	}
}

func TestRetentionOffSpillAndQuarantine(t *testing.T) {
	db := NewDB()
	if err := db.SetRetention(RetainNone); err != nil {
		t.Fatal(err)
	}
	if db.FullyRetained() {
		t.Fatal("FullyRetained after RetainNone")
	}
	var spill bytes.Buffer
	db.Native.SetSpill(&spill)

	// Untagged flows spill immediately and never become resident.
	db.Native.Add(&Flow{ID: 1, Browser: "Chrome", ReqBytes: 10})
	// Attempt-tagged flows park until sealed...
	db.Native.Add(&Flow{ID: 2, Browser: "Chrome", ReqBytes: 20, Attempt: 5})
	if db.Native.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", db.Native.Pending())
	}
	db.SealAttempt(5)
	// ...and quarantined flows are dropped before the spill sink.
	db.Native.Add(&Flow{ID: 3, Browser: "Chrome", ReqBytes: 30, Attempt: 6})
	if n := db.RemoveAttempt(6); n != 1 {
		t.Fatalf("RemoveAttempt removed %d, want 1", n)
	}

	if db.Native.Len() != 0 || db.Native.Pending() != 0 {
		t.Fatalf("resident = %d pending = %d, want 0/0", db.Native.Len(), db.Native.Pending())
	}
	if db.Native.Seen() != 3 {
		t.Fatalf("seen = %d, want 3", db.Native.Seen())
	}
	if err := db.Native.SpillErr(); err != nil {
		t.Fatal(err)
	}

	// The spill file holds exactly the committed flows, in commit order.
	back := NewStore()
	if err := back.ReadJSONL(&spill); err != nil {
		t.Fatal(err)
	}
	flows := back.All()
	if len(flows) != 2 || flows[0].ID != 1 || flows[1].ID != 2 {
		ids := make([]int64, len(flows))
		for i, f := range flows {
			ids[i] = f.ID
		}
		t.Fatalf("spilled flow IDs = %v, want [1 2]", ids)
	}
}

func TestRetentionNativeKeepsNativeOnly(t *testing.T) {
	db := NewDB()
	if err := db.SetRetention(RetainNative); err != nil {
		t.Fatal(err)
	}
	db.Engine.Add(&Flow{ID: 1})
	db.Native.Add(&Flow{ID: 2})
	if db.Engine.Len() != 0 || db.Native.Len() != 1 {
		t.Fatalf("engine = %d native = %d, want 0/1", db.Engine.Len(), db.Native.Len())
	}
	if err := db.SetRetention("bogus"); err == nil {
		t.Fatal("bogus retention mode accepted")
	}
}

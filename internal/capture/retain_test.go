package capture

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"panoptes/internal/obs"
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

// TestCommitAllBatch: a batch of mixed origins is counted, filed or
// spilled per store in slice order, and reaches the tap whole; the
// obs counters are process-global, so the test reads deltas.
func TestCommitAllBatch(t *testing.T) {
	db := NewDB()
	if err := db.SetRetention(RetainNative); err != nil {
		t.Fatal(err)
	}
	var spill bytes.Buffer
	db.Engine.SetSpill(&spill)
	tap := &recordingTap{}
	db.SetTap(tap)
	total := func(name, db string) int64 { return obs.Default.Counter(name, "db", db).Value() }
	flows0, spilled0 := total("capture_flows_total", "engine"), total("capture_spilled_total", "engine")
	nflows0 := total("capture_flows_total", "native")

	first := ReserveFlowIDs(5)
	if next := NextFlowID(); next != first+5 {
		t.Fatalf("NextFlowID after reserving %d..%d = %d", first, first+4, next)
	}
	origins := []Origin{OriginEngine, OriginNative, OriginEngine, "", OriginEngine}
	batch := make([]*Flow, len(origins))
	for i, o := range origins {
		batch[i] = &Flow{ID: first + int64(i), Origin: o, ReqBytes: 10}
	}
	db.CommitAll(batch)

	if got := total("capture_flows_total", "engine") - flows0; got != 3 {
		t.Errorf("engine capture_flows_total delta %d, want 3", got)
	}
	if got := total("capture_spilled_total", "engine") - spilled0; got != 3 {
		t.Errorf("engine capture_spilled_total delta %d, want 3", got)
	}
	if got := total("capture_flows_total", "native") - nflows0; got != 2 {
		t.Errorf("native capture_flows_total delta %d, want 2", got)
	}
	if db.Engine.Seen() != 3 || db.Native.Seen() != 2 || db.Engine.Len() != 0 || db.Native.Len() != 2 {
		t.Errorf("engine seen/len %d/%d, native %d/%d; want 3/0, 2/2",
			db.Engine.Seen(), db.Engine.Len(), db.Native.Seen(), db.Native.Len())
	}
	if batch[3].Origin != OriginNative {
		t.Errorf("unstamped flow filed as %q, want native", batch[3].Origin)
	}
	back := NewStore()
	if err := back.ReadJSONL(&spill); err != nil {
		t.Fatal(err)
	}
	var spilled []int64
	for _, f := range back.All() {
		spilled = append(spilled, f.ID)
	}
	if want := []int64{first, first + 2, first + 4}; fmt.Sprint(spilled) != fmt.Sprint(want) {
		t.Errorf("spilled IDs %v, want %v", spilled, want)
	}
	if want := []int64{first + 1, first + 3}; db.Native.All()[0].ID != want[0] || db.Native.All()[1].ID != want[1] {
		t.Errorf("native store holds %v, want %v", db.Native.All(), want)
	}
	if len(tap.observed) != len(batch) || tap.observed[0] != first || tap.observed[4] != first+4 {
		t.Errorf("tap observed %v, want the batch in slice order", tap.observed)
	}
}

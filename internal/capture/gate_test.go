package capture_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/sink"
)

// gateTap records what the commit gate hands a tap.
type gateTap struct {
	mu       sync.Mutex
	observed []int64 // flow IDs in delivery order
	perName  map[string]int
	seals    []int64
	retracts []int64
}

func (t *gateTap) Observe(f *capture.Flow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observed = append(t.observed, f.ID)
	if t.perName == nil {
		t.perName = map[string]int{}
	}
	t.perName[f.Browser]++
}

func (t *gateTap) Seal(attempt int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seals = append(t.seals, attempt)
}

func (t *gateTap) Retract(attempt int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retracts = append(t.retracts, attempt)
}

func (t *gateTap) ids() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int64(nil), t.observed...)
}

func storeIDs(s *capture.Store) []int64 {
	var ids []int64
	for _, f := range s.All() {
		ids = append(ids, f.ID)
	}
	return ids
}

// TestCommitGate pins the DB's attempt quarantine in every retention
// mode: untagged flows reach the tap at Add, an attempt's flows reach it
// only at SealAttempt (in capture order across Engine and Native), a
// removed attempt's flows never reach it or an export sink, and its
// pooled records are recycled.
func TestCommitGate(t *testing.T) {
	for _, tc := range []struct {
		mode           capture.RetainMode
		engine, native []int64 // resident flow IDs at the end
	}{
		{capture.RetainAll, []int64{1, 3, 5}, []int64{6, 2}},
		{capture.RetainNative, nil, []int64{6, 2}},
		{capture.RetainNone, nil, nil},
	} {
		t.Run(string(tc.mode), func(t *testing.T) {
			db := capture.NewDB()
			if err := db.SetRetention(tc.mode); err != nil {
				t.Fatal(err)
			}
			var spill bytes.Buffer
			db.Engine.SetSpill(&spill)
			mem := sink.NewMemorySink()
			exp := sink.NewExporter(sink.Config{BatchSize: 1, Now: func() time.Time { return time.Time{} }}, mem)
			tap := &gateTap{}
			db.SetTap(capture.Taps{tap, exp})

			db.Engine.Add(&capture.Flow{ID: 1})
			if got := tap.ids(); !slices.Equal(got, []int64{1}) {
				t.Fatalf("untagged flow: observed %v, want [1] at Add", got)
			}
			db.Native.Add(&capture.Flow{ID: 2, Attempt: 5})
			db.Engine.Add(&capture.Flow{ID: 3, Attempt: 5})
			removed := capture.AcquireFlow()
			removed.ID, removed.Host, removed.Attempt = 4, "quarantined.example", 6
			db.Native.Add(removed)
			removed.Release() // the producer is done; only the gate holds it
			db.Engine.Add(&capture.Flow{ID: 5, Attempt: 5})
			db.Native.Add(&capture.Flow{ID: 6})
			if got := tap.ids(); !slices.Equal(got, []int64{1, 6}) {
				t.Fatalf("before seal: observed %v, want only the untagged [1 6]", got)
			}
			if e, n := db.Engine.Pending(), db.Native.Pending(); e != 2 || n != 2 {
				t.Fatalf("parked engine/native = %d/%d, want 2/2", e, n)
			}

			if n := db.RemoveAttempt(6); n != 1 {
				t.Fatalf("RemoveAttempt dropped %d flows, want 1", n)
			}
			if removed.Host != "" {
				t.Fatal("removed attempt's pooled flow was not recycled")
			}
			db.SealAttempt(5)
			if got := tap.ids(); !slices.Equal(got, []int64{1, 6, 2, 3, 5}) {
				t.Fatalf("after seal: observed %v, want [1 6 2 3 5]", got)
			}
			if !slices.Equal(tap.seals, []int64{5}) || !slices.Equal(tap.retracts, []int64{6}) {
				t.Fatalf("seals %v retracts %v, want [5] and [6]", tap.seals, tap.retracts)
			}
			if e, n := db.Engine.Pending(), db.Native.Pending(); e != 0 || n != 0 {
				t.Fatalf("parked engine/native = %d/%d at the end, want 0/0", e, n)
			}
			if got := storeIDs(db.Engine); !slices.Equal(got, tc.engine) {
				t.Fatalf("resident engine flows %v, want %v", got, tc.engine)
			}
			if got := storeIDs(db.Native); !slices.Equal(got, tc.native) {
				t.Fatalf("resident native flows %v, want %v", got, tc.native)
			}
			if tc.mode == capture.RetainNone {
				back := capture.NewStore()
				if err := back.ReadJSONL(&spill); err != nil {
					t.Fatal(err)
				}
				if got := storeIDs(back); !slices.Equal(got, []int64{1, 3, 5}) {
					t.Fatalf("spilled engine flows %v, want [1 3 5]", got)
				}
			}

			if err := exp.Close(); err != nil {
				t.Fatal(err)
			}
			var published []int64
			for _, f := range mem.Flows() {
				published = append(published, f.ID)
			}
			if !slices.Equal(published, []int64{1, 6, 2, 3, 5}) {
				t.Fatalf("exported %v, want [1 6 2 3 5] without the removed attempt", published)
			}
		})
	}
}

// TestCommitGateConcurrent drives the gate the way a parallel campaign
// does: eight browsers adding tagged and untagged flows to both stores
// at once, sealing or removing their own attempts. Run under -race.
func TestCommitGateConcurrent(t *testing.T) {
	const browsers, attempts = 8, 50
	db := capture.NewDB()
	tap := &gateTap{}
	db.SetTap(tap)

	var wg sync.WaitGroup
	for b := 0; b < browsers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			name := fmt.Sprintf("browser-%d", b)
			for i := 0; i < attempts; i++ {
				att := int64(b*attempts + i + 1)
				db.Engine.Add(&capture.Flow{ID: capture.NextFlowID(), Browser: name, Attempt: att})
				db.Native.Add(&capture.Flow{ID: capture.NextFlowID(), Browser: name, Attempt: att})
				if i%2 == 0 {
					db.RemoveAttempt(att)
					db.Native.Add(&capture.Flow{ID: capture.NextFlowID(), Browser: name})
				} else {
					db.SealAttempt(att)
				}
			}
		}(b)
	}
	wg.Wait()

	// Per browser: 25 sealed attempts of two flows plus 25 untagged.
	for b := 0; b < browsers; b++ {
		name := fmt.Sprintf("browser-%d", b)
		if got := tap.perName[name]; got != attempts/2*3 {
			t.Fatalf("%s: observed %d flows, want %d", name, got, attempts/2*3)
		}
	}
	if len(tap.seals) != browsers*attempts/2 || len(tap.retracts) != browsers*attempts/2 {
		t.Fatalf("seals %d retracts %d, want %d each", len(tap.seals), len(tap.retracts), browsers*attempts/2)
	}
	if n := db.Engine.Pending() + db.Native.Pending(); n != 0 {
		t.Fatalf("%d flows stranded in the gate", n)
	}
	if n := db.Engine.Len() + db.Native.Len(); n != browsers*attempts/2*3 {
		t.Fatalf("resident flows %d, want %d", n, browsers*attempts/2*3)
	}
}

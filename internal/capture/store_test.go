package capture_test

import (
	"fmt"
	"sync"
	"testing"

	"panoptes/internal/capture"
)

// TestStoreConcurrentHammer drives the store from 32 writer goroutines
// while readers take snapshots, then checks nothing was lost and every
// writer's own flows are still in its insertion order. Run under -race
// this is the store's concurrency contract test.
func TestStoreConcurrentHammer(t *testing.T) {
	const (
		writers       = 32
		flowsPerGorou = 200
	)
	s := capture.NewStore()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers exercise every snapshot path while writes are in flight.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Len()
				_ = s.All()
				_ = s.Hosts()
				_ = s.TotalBytes(true)
				_ = s.Filter(func(f *capture.Flow) bool { return f.ReqBytes > 0 })
			}
		}()
	}

	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < flowsPerGorou; i++ {
				s.Add(&capture.Flow{
					ID:       capture.NextFlowID(),
					Browser:  fmt.Sprintf("writer-%d", g),
					Host:     fmt.Sprintf("h%d.example", g),
					Path:     fmt.Sprintf("/%d", i),
					ReqBytes: 1,
				})
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	want := writers * flowsPerGorou
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	all := s.All()
	if len(all) != want {
		t.Fatalf("All returned %d flows, want %d", len(all), want)
	}
	seen := make(map[int64]bool, want)
	for _, f := range all {
		if seen[f.ID] {
			t.Fatalf("flow %d appears twice in snapshot", f.ID)
		}
		seen[f.ID] = true
	}
	// Each writer added its flows sequentially, so the store's insertion
	// order must preserve every writer's own sub-order.
	for g := 0; g < writers; g++ {
		name := fmt.Sprintf("writer-%d", g)
		next := 0
		for _, f := range all {
			if f.Browser != name {
				continue
			}
			if want := fmt.Sprintf("/%d", next); f.Path != want {
				t.Fatalf("writer %d flows out of order: got %s, want %s", g, f.Path, want)
			}
			next++
		}
		if next != flowsPerGorou {
			t.Fatalf("writer %d has %d flows in snapshot, want %d", g, next, flowsPerGorou)
		}
	}
	if got := s.TotalBytes(false); got != int64(want) {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	s.Reset()
	if s.Len() != 0 || len(s.All()) != 0 {
		t.Fatal("store not empty after Reset")
	}
}

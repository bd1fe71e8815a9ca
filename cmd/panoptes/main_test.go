package main

import (
	"runtime"
	"testing"
)

// TestWorkerCount: -parallel 0 (the default) means GOMAXPROCS on the
// crawl and the population path alike; a positive value is kept.
func TestWorkerCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ in, want int }{{0, procs}, {-1, procs}, {1, 1}, {8, 8}} {
		if got := workerCount(c.in); got != c.want {
			t.Errorf("workerCount(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

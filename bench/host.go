package bench

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is this process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// Host describes the machine a result file was measured on.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// HostInfo collects the host block. The commit is the working
// directory's git HEAD ("unknown" outside a git checkout).
func HostInfo() Host {
	h := Host{
		GOMAXPROCS: childProcs(),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// childProcs is the GOMAXPROCS every measured run uses: min(2, nproc).
func childProcs() int { return min(2, runtime.NumCPU()) }

// refNominal is the reference computation's time at Size.Reference 1 on
// the baseline host (the README's host block): its median over 30
// readings, which ranged 0.23–0.35 s as the host's speed drifted.
// CPU-bound metrics are reported at that host speed.
const refNominal = 290 * time.Millisecond

// refLive is how many records each reference goroutine keeps reachable,
// so the collector has a live heap to mark as well as garbage to sweep.
const refLive = 1 << 17

type refRecord struct {
	Host, Path string
	Headers    map[string]string
	Body       []byte
}

var refSink atomic.Uint64

// referenceTime times a fixed computation that stands in for the
// program's CPU work, on parallelism goroutines at once: integer
// arithmetic, then short-lived maps, strings and records allocated
// around a live heap, so the garbage collector runs as it does in the
// program. It returns the geometric mean of the two parts' wall times.
// The computation is this package's and the Go runtime's only, so a
// change to the program cannot move it; a change in the host's speed
// moves it with the program. scale sizes it: 1 takes about 0.5 s.
func referenceTime(scale float64) time.Duration {
	steps, rounds := int(50e6*scale), int(3000*scale)
	arith := parallelTime(func(g int) {
		x := uint64(g) + 1
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x = x*0x9E3779B97F4A7C15 + 1
		}
		refSink.Add(x)
	})
	alloc := parallelTime(func(g int) {
		keep := make([]*refRecord, refLive)
		for i := 0; i < rounds; i++ {
			m := make(map[string]*refRecord, 64)
			for j := 0; j < 64; j++ {
				k := "h" + strconv.Itoa(i*64+j) + ".example"
				m[k] = &refRecord{Host: k, Path: "/p/" + strconv.Itoa(j),
					Headers: map[string]string{"a": k, "b": "v"}, Body: make([]byte, 256)}
			}
			keep[i%refLive] = m["h"+strconv.Itoa(i*64)+".example"]
		}
		refSink.Add(uint64(len(keep)))
	})
	return time.Duration(math.Sqrt(float64(arith) * float64(alloc)))
}

// parallelTime runs f on parallelism goroutines and returns the wall
// time until all have returned.
func parallelTime(f func(g int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f(g)
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

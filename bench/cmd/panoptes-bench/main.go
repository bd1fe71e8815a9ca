// Command panoptes-bench measures Panoptes end to end and layer by layer.
//
// With no -workload it is the whole benchmark: every workload runs -runs
// times, interleaved; then one traced run per workload; every run's
// output is checked; every metric is printed by name and unit (median,
// q1, q3, n), and all samples plus a host block go to -out:
//
//	go run ./cmd/panoptes-bench -runs 5 -out set1.json
//
// With -workload it performs a single run and prints its result as one
// JSON line (the form the repeated runs use). Each rep of the run is a
// fresh child process (-rep), so no rep inherits another's heap:
//
//	panoptes-bench -workload crawl -seed 1 -seconds 20 -trace 0
//
// -compare judges a result file against a base, exiting non-zero on any
// regression or any row the noise leaves unresolved:
//
//	panoptes-bench -compare base.json head.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"panoptes/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload once ("+strings.Join(bench.Workloads, ", ")+")")
		seed      = flag.Int64("seed", -1, "fault-plan / population seed (-1 = each workload's default)")
		seconds   = flag.Float64("seconds", 20, "measurement window of one run")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
		runs      = flag.Int("runs", 5, "untraced runs per workload")
		out       = flag.String("out", "", "write every sample and the host block to this JSON file")
		artifacts = flag.String("artifacts", ".bench_build/artifacts", "traced runs write trace-<workload>.jsonl and cpu-<workload>.pprof here")
		tmp       = flag.String("tmp", ".bench_build/tmp", "directory for temporary sink output")
		compare   = flag.Bool("compare", false, "compare two result files: -compare base.json head.json")
		repIndex  = flag.Int("rep", -1, "internal: perform rep N of a -workload run and print its result")
	)
	flag.Parse()
	// Reps and the run's reference computation see the same cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = runCompare(flag.Arg(0), flag.Arg(1))
	case *workload != "":
		opts := bench.Options{
			Workload: *workload, Seed: seedFor(*workload, *seed), Seconds: *seconds,
			Trace: *trace == 1, Size: bench.DefaultSize, TempDir: *tmp, Artifacts: *artifacts,
		}
		if *repIndex >= 0 {
			err = runRep(opts, *repIndex)
		} else {
			err = runOne(opts)
		}
	default:
		err = runAll(*runs, *seconds, *seed, *out, *artifacts, *tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "panoptes-bench:", err)
		os.Exit(1)
	}
}

func seedFor(workload string, seed int64) int64 {
	if seed < 0 {
		return bench.DefaultSeed(workload)
	}
	return seed
}

// runRep performs one rep in this process and prints its result.
func runRep(opts bench.Options, i int) error {
	res, err := bench.RunRep(opts, i)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawnRep runs rep i of a run in a fresh child process.
func spawnRep(opts bench.Options, i int, traced bool) (*bench.RepResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A rep takes seconds; the deadline only catches a wedged child.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", opts.Workload, "-seed", strconv.FormatInt(opts.Seed, 10),
		"-trace", boolArg(traced), "-rep", strconv.Itoa(i),
		"-artifacts", opts.Artifacts, "-tmp", opts.TempDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("rep process: %w", err)
	}
	var res bench.RepResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("rep process output: %w", err)
	}
	return &res, nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// measure performs one run, each rep in a fresh child process.
func measure(opts bench.Options) (*bench.Record, error) {
	if err := os.MkdirAll(opts.TempDir, 0o755); err != nil {
		return nil, err
	}
	if !opts.Trace {
		opts.Artifacts = ""
	}
	opts.Spawn = func(i int, traced bool) (*bench.RepResult, error) { return spawnRep(opts, i, traced) }
	return bench.Run(opts)
}

// runOne is one measured run; its result is the last line of standard
// output.
func runOne(opts bench.Options) error {
	rec, err := measure(opts)
	if err != nil {
		return err
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := rec.ResultLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct || rec.Failed > 0 {
		return fmt.Errorf("%s: output check failed (%d of %d visits failed)", rec.Workload, rec.Failed, rec.Attempted)
	}
	return nil
}

// runAll is the whole benchmark.
func runAll(runs int, seconds float64, seed int64, out, artifacts, tmp string) error {
	res := &bench.ResultFile{Seconds: seconds, Runs: runs}
	var bad []string
	run := func(w string, trace bool) error {
		rec, err := measure(bench.Options{
			Workload: w, Seed: seedFor(w, seed), Seconds: seconds, Trace: trace,
			Size: bench.DefaultSize, TempDir: tmp, Artifacts: artifacts,
		})
		if err != nil {
			return err
		}
		status := "ok"
		if !rec.Correct || rec.Failed > 0 {
			status = "FAILED: " + strings.Join(rec.Problems, "; ")
			bad = append(bad, w)
		}
		fmt.Fprintf(os.Stderr, "  %-12s trace=%-5v reps=%-3d %s\n", w, trace, len(rec.Samples), status)
		res.Records = append(res.Records, *rec)
		return nil
	}
	for i := 0; i < runs; i++ {
		fmt.Fprintf(os.Stderr, "round %d/%d\n", i+1, runs)
		for _, w := range bench.Workloads {
			if err := run(w, false); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(os.Stderr, "traced runs")
	for _, w := range bench.Workloads {
		if err := run(w, true); err != nil {
			return err
		}
	}
	res.Host = bench.HostInfo()
	res.PrintSummary(os.Stdout)
	if out != "" {
		if err := res.Write(out); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(bad, ", "))
	}
	return nil
}

func runCompare(basePath, headPath string) error {
	base, err := bench.ReadResultFile(basePath)
	if err != nil {
		return err
	}
	head, err := bench.ReadResultFile(headPath)
	if err != nil {
		return err
	}
	rows := bench.Compare(base, head)
	bench.PrintCompare(os.Stdout, rows)
	failing := bench.Failing(rows)
	var msgs []string
	for _, v := range []string{bench.Worse, bench.Unresolved} {
		if names := failing[v]; len(names) > 0 {
			msgs = append(msgs, v+": "+strings.Join(names, ", "))
		}
	}
	if len(msgs) > 0 {
		return fmt.Errorf("comparison failed; %s", strings.Join(msgs, "; "))
	}
	return nil
}
